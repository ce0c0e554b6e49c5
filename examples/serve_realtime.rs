//! Real-mode serving run: the same engine as `serve_stream`, but on the
//! wall clock — workers are real blocking threads, stage costs become
//! scaled sleeps, structured tracing goes to stderr, and a Prometheus /
//! JSON metrics endpoint serves the run's counters and histograms.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --features tracing --example serve_realtime
//! ```
//!
//! Pass `--hold-secs N` to keep the metrics endpoint up for `N` seconds
//! after the run (so CI — or you — can curl it):
//!
//! ```sh
//! cargo run --release --features tracing --example serve_realtime -- --hold-secs 5 &
//! curl -s http://127.0.0.1:9898/metrics
//! ```

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::ContextSpec;
use rcacopilot::serve::metrics::MetricsServer;
use rcacopilot::serve::{
    ArrivalModel, ClockConfig, EngineConfig, IndexMode, MetricsRegistry, RealClockConfig,
    ServeEngine, StreamConfig,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident, Topology};
use std::sync::Arc;

fn main() {
    // Structured tracing to stderr: spans per event/stage/tenant.
    tracing::init_stderr(tracing::Level::Info);

    let hold_secs: u64 = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--hold-secs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };

    // 1. Train on a small simulated campaign.
    let dataset = generate_dataset(&CampaignConfig {
        seed: 42,
        topology: Topology::new(2, 4, 2, 2),
        noise: NoiseProfile::default(),
    });
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), RcaCopilotConfig::default());
    let test: Vec<Incident> = split
        .test
        .iter()
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    println!(
        "Trained on {} incidents; serving {} on the wall clock.",
        copilot.history_len(),
        test.len()
    );

    // 2. Metrics registry + HTTP endpoint (fixed port for curl-ability).
    let registry = MetricsRegistry::shared();
    let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:9898")
        .expect("bind metrics endpoint");
    println!(
        "Metrics endpoint: http://{}/metrics (and /metrics.json)",
        server.addr()
    );

    // 3. Real-mode engine: each virtual second of modeled stage cost
    //    becomes 0.1 ms of actual sleep, so the pool overlaps waits
    //    exactly like a fleet blocked on remote LLM calls.
    let stream = StreamConfig {
        seed: 17,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 60,
            burst_prob: 0.35,
            burst_len: 6,
            burst_gap_secs: 8,
        },
        reraise_prob: 0.1,
    };
    let engine = ServeEngine::new(
        copilot,
        EngineConfig {
            workers: 4,
            index_mode: IndexMode::Online,
            clock: ClockConfig::Real(RealClockConfig::default()),
            metrics: Some(Arc::clone(&registry)),
            ..EngineConfig::default()
        },
    );
    let outcome = engine.run(&test, &stream);

    // 4. Wall-clock numbers of the run.
    let wall = outcome.wall.expect("real mode records wall stats");
    println!(
        "\n{} events: wall {:.1} ms, {:.1} events/s, p50 {:.2} ms, p99 {:.2} ms",
        outcome.records.len(),
        wall.wall_nanos as f64 / 1e6,
        wall.throughput_per_sec,
        wall.p50_ms,
        wall.p99_ms,
    );
    println!("\nPrometheus export (first lines):");
    for line in registry.render_prometheus().lines().take(8) {
        println!("  {line}");
    }

    if hold_secs > 0 {
        println!("\nHolding metrics endpoint for {hold_secs}s — curl it now.");
        std::thread::sleep(std::time::Duration::from_secs(hold_secs));
    }
    server.shutdown();
}
