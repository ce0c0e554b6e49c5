//! Real-clock serving sweep: actual worker threads, wall-time latency.
//!
//! The virtual-time sweep (`serve_throughput`) models the worker pool as
//! a DES; this bench runs the *same engine* under
//! [`rcacopilot_serve::RealClock`] — workers are real `std::thread`s and
//! every modeled stage cost becomes a scaled wall-clock sleep (an LLM
//! call is latency-bound waiting on a remote service, so sleeping the
//! modeled duration is the honest single-machine stand-in, and it scales
//! with thread count even on a one-core CI runner). Recorded per worker
//! count: wall throughput (events/s), p50/p99 wall latency.
//!
//! Two invariants are asserted:
//!
//! - the real-clock prediction log is byte-identical to the DES log for
//!   every worker count (the dual-mode parity contract), and
//! - wall throughput increases monotonically from 1 through 4 workers
//!   (beyond that a single-core host may plateau; 8 is reported, not
//!   asserted).
//!
//! Results go to `BENCH_serve_realtime.json` at the repository root
//! (tracked). `--smoke` shrinks the campaign and sweep for CI.

use rcacopilot_bench::{banner, write_root_results, SPLIT_SEED, TRAIN_FRAC};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
use rcacopilot_serve::{
    AdmissionConfig, ArrivalModel, ClockConfig, EngineConfig, IndexMode, RealClockConfig,
    ServeEngine, StreamConfig,
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
        "Real-clock serving: smoke sweep (workers 1, 2)"
    } else {
        "Real-clock serving: wall throughput, workers 1..8"
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
        .take(if smoke { 12 } else { 60 })
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    println!("train={} test={} (streamed)", split.train.len(), test.len());

    // The same saturating storm as the virtual sweep: arrivals land much
    // faster than one worker drains them, so extra threads always have
    // queued work to overlap.
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
    // ~250 modeled virtual seconds per event → a few ms of real sleep
    // each: long enough to dominate compute, short enough for CI.
    let real = RealClockConfig {
        nanos_per_virtual_sec: if smoke { 4_000 } else { 20_000 },
        pace_arrivals: false,
    };
    let config = |workers: usize, clock: ClockConfig| EngineConfig {
        workers,
        queue_capacity: 32,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        clock,
        ..EngineConfig::default()
    };

    // The DES baseline the real runs must reproduce byte for byte.
    let des =
        ServeEngine::new(copilot.clone(), config(1, ClockConfig::Virtual)).run(&test, &stream);

    let worker_counts: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let mut sweep_rows = Vec::new();
    let mut throughputs = Vec::new();
    println!(
        "\n{:>7} {:>12} {:>14} {:>10} {:>10}",
        "workers", "wall ms", "throughput/s", "p50 ms", "p99 ms"
    );
    for &workers in &worker_counts {
        let engine = ServeEngine::new(copilot.clone(), config(workers, ClockConfig::Real(real)));
        let out = engine.run(&test, &stream);
        assert_eq!(
            out.log, des.log,
            "real-clock log must be byte-identical to the DES log ({workers} workers)"
        );
        let wall = out.wall.expect("real runs measure wall time");
        println!(
            "{:>7} {:>12.1} {:>14.1} {:>10.2} {:>10.2}",
            workers,
            wall.wall_nanos as f64 / 1e6,
            wall.throughput_per_sec,
            wall.p50_ms,
            wall.p99_ms,
        );
        sweep_rows.push(serde_json::json!({
            "workers": workers,
            "wall_nanos": wall.wall_nanos,
            "throughput_per_sec": wall.throughput_per_sec,
            "latency_p50_ms": wall.p50_ms,
            "latency_p99_ms": wall.p99_ms,
            "completed": wall.completed,
        }));
        throughputs.push((workers, wall.throughput_per_sec));
    }
    println!("\nprediction log identical to the DES run for every worker count ✓");
    if !smoke {
        for pair in throughputs.windows(2) {
            let (lo_w, lo) = pair[0];
            let (hi_w, hi) = pair[1];
            if hi_w > 4 {
                continue; // beyond 4 threads a 1-core host may plateau
            }
            assert!(
                hi > lo,
                "wall throughput must increase {lo_w}->{hi_w} workers ({lo:.1} vs {hi:.1}/s)"
            );
        }
        println!("wall throughput increases monotonically from 1 to 4 workers ✓");
    }

    write_root_results(
        "BENCH_serve_realtime",
        &serde_json::json!({
            "stream": {
                "seed": stream.seed,
                "model": "bursty(mean_gap=10s, p=0.5, len=8, gap=2s)",
                "reraise_prob": stream.reraise_prob,
                "test_incidents": test.len(),
            },
            "clock": {
                "backend": "real",
                "nanos_per_virtual_sec": real.nanos_per_virtual_sec,
                "pace_arrivals": real.pace_arrivals,
            },
            "sweep": sweep_rows,
            "des_parity": "log byte-identical to virtual run for every worker count",
            "smoke": smoke,
        }),
        smoke,
    );
}
