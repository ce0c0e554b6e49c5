//! Serving-engine throughput sweep: worker counts 1→8 against a
//! saturating bursty alert stream.
//!
//! All performance numbers are *virtual-time*: the engine's admission
//! plan and per-stage costs live on the stream's own clock, and the
//! worker pool is modeled by a deterministic discrete-event simulation.
//! That makes the sweep exactly reproducible (and meaningful even on a
//! single-core CI runner). Two invariants are asserted:
//!
//! - the prediction log is byte-identical for every worker count, and
//! - under the saturating (admission-disabled) stream, virtual
//!   throughput strictly increases from 1 to 8 workers.
//!
//! A second, admission-enabled "storm" run reports shedding and
//! degradation. Results go to `BENCH_serve.json` at the repository root
//! (tracked), not `target/bench-results/`. `--smoke` runs a single
//! worker over a small campaign for CI.

use rcacopilot_bench::{banner, write_root_results, SPLIT_SEED, TRAIN_FRAC};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
use rcacopilot_serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, IndexMode, ServeEngine, StreamConfig,
};
use rcacopilot_simcloud::noise::NoiseProfile;
use rcacopilot_simcloud::{generate_dataset, CampaignConfig, Incident, Topology};

fn smoke_dataset() -> rcacopilot_simcloud::IncidentDataset {
    generate_dataset(&CampaignConfig {
        seed: 5,
        topology: Topology::new(2, 4, 2, 2),
        noise: NoiseProfile {
            routine_logs: 2,
            herring_logs: 1,
            healthy_traces: 1,
            unrelated_failure: false,
            bystander_anomalies: 1,
        },
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Serving engine: smoke run (1 worker)"
    } else {
        "Serving engine: virtual throughput, workers 1..8"
    });

    let dataset = if smoke {
        smoke_dataset()
    } else {
        rcacopilot_bench::standard_dataset()
    };
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let spec = ContextSpec::default();
    let copilot_config = if smoke {
        RcaCopilotConfig {
            embedding: FastTextConfig {
                dim: 24,
                epochs: 8,
                lr: 0.4,
                features: FeatureExtractor {
                    buckets: 1 << 12,
                    ..FeatureExtractor::default()
                },
                ..FastTextConfig::default()
            },
            ..RcaCopilotConfig::default()
        }
    } else {
        RcaCopilotConfig::default()
    };
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), copilot_config);
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(if smoke { 20 } else { usize::MAX })
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    println!("train={} test={} (streamed)", split.train.len(), test.len());

    // A saturating storm: the whole stream arrives in a window much
    // shorter than the total service demand, so even eight workers stay
    // busy and virtual throughput keeps scaling through the sweep.
    let stream = StreamConfig {
        seed: 17,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 10,
            burst_prob: 0.5,
            burst_len: 8,
            burst_gap_secs: 2,
        },
        reraise_prob: 0.05,
    };

    let worker_counts: Vec<usize> = if smoke { vec![1] } else { (1..=8).collect() };
    let mut sweep_rows = Vec::new();
    let mut logs: Vec<String> = Vec::new();
    println!(
        "\n{:>7} {:>16} {:>10} {:>10} {:>12} {:>11}",
        "workers", "throughput/h", "p50 s", "p99 s", "makespan s", "peak queue"
    );
    for &workers in &worker_counts {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers,
                queue_capacity: 32,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
        );
        let out = engine.run(&test, &stream);
        let exec = &out.exec;
        println!(
            "{:>7} {:>16.2} {:>10} {:>10} {:>12} {:>11}",
            workers,
            exec.throughput_per_hour(),
            exec.latencies.percentile(0.50),
            exec.latencies.percentile(0.99),
            exec.makespan_secs,
            exec.peak_queue_depth,
        );
        sweep_rows.push(serde_json::json!({
            "workers": workers,
            "throughput_per_hour": exec.throughput_per_hour(),
            "latency_p50_secs": exec.latencies.percentile(0.50),
            "latency_p99_secs": exec.latencies.percentile(0.99),
            "wait_p99_secs": exec.waits.percentile(0.99),
            "makespan_secs": exec.makespan_secs,
            "peak_queue_depth": exec.peak_queue_depth,
            "completed": exec.completed,
        }));
        logs.push(out.log);
    }
    for log in &logs[1..] {
        assert_eq!(
            log, &logs[0],
            "prediction log must be identical for every worker count"
        );
    }
    if !smoke {
        for pair in sweep_rows.windows(2) {
            let lo = pair[0].as_map().unwrap();
            let hi = pair[1].as_map().unwrap();
            let tp = |m: &[(String, serde_json::Value)]| match m
                .iter()
                .find(|(k, _)| k == "throughput_per_hour")
                .map(|(_, v)| v)
            {
                Some(serde_json::Value::F64(f)) => *f,
                other => panic!("throughput field missing: {other:?}"),
            };
            assert!(
                tp(hi) > tp(lo),
                "virtual throughput must increase monotonically with workers"
            );
        }
        println!("\nthroughput increases strictly monotonically from 1 to 8 workers ✓");
    }
    println!("prediction log identical across all worker counts ✓");

    // Storm run with admission control engaged.
    let storm_engine = ServeEngine::new(
        copilot.clone(),
        EngineConfig {
            workers: if smoke { 1 } else { 4 },
            queue_capacity: 32,
            index_mode: IndexMode::Online,
            admission: AdmissionConfig {
                capacity_secs: 1_800,
                ..AdmissionConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let storm = storm_engine.run(&test, &stream);
    println!("\nstorm run with admission control (capacity 1800 service-seconds):");
    println!("{}", serde_json::to_string_pretty(&storm.report).unwrap());

    write_root_results(
        "BENCH_serve",
        &serde_json::json!({
            "stream": {
                "seed": stream.seed,
                "model": "bursty(mean_gap=10s, p=0.5, len=8, gap=2s)",
                "reraise_prob": stream.reraise_prob,
                "test_incidents": test.len(),
            },
            "sweep": sweep_rows,
            "storm": storm.report,
            "smoke": smoke,
        }),
        smoke,
    );
}
