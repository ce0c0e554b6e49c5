//! Sharded retrieval-plane scaling sweep: index shards 1→8 under a
//! bursty alert storm.
//!
//! Two claims are benchmarked, both in deterministic virtual time:
//!
//! - **Correctness is free**: the engine's prediction log is
//!   byte-identical for every shard count (asserted by running the real
//!   engine at 1, 2 and 8 shards).
//! - **The lock split pays**: a discrete-event model of the *index
//!   plane* — every admitted event's retrieval op holding its category
//!   shard's lock, driven by a fixed requester pool — shows virtual
//!   throughput strictly increasing from 1 to 8 shards under the storm,
//!   because only same-shard operations serialize. The DES aggregates
//!   several tenant streams of the same storm onto the one shared index
//!   (a serving plane fronts many alert sources), which is exactly the
//!   regime where a single lock domain saturates.
//!
//! The DES deliberately isolates the index plane from the rest of the
//! pipeline: collection and summarization dominate end-to-end cost and
//! would mask lock contention entirely (which is also why the engine's
//! own worker sweep lives in `serve_throughput`, not here). Results go
//! to `BENCH_serve_shards.json` at the repository root (tracked).
//! `--smoke` runs a small campaign with a reduced matrix for CI.

use rcacopilot_bench::{banner, write_root_results, SPLIT_SEED, TRAIN_FRAC};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::retrieval::shard_for_category;
use rcacopilot_core::ContextSpec;
use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
use rcacopilot_serve::vmetrics::{simulate_shard_locks, ShardOp};
use rcacopilot_serve::{
    admission, cost, stream, AdmissionConfig, ArrivalModel, Disposition, EngineConfig, IndexMode,
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
        "Sharded retrieval plane: smoke run"
    } else {
        "Sharded retrieval plane: shards 1..8 under a bursty storm"
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

    // A dense storm: near-back-to-back bursts. (No monitor flapping —
    // re-raises advance the virtual clock between flaps, and this bench
    // wants the arrival window tight.)
    let storm = |seed: u64| StreamConfig {
        seed,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 2,
            burst_prob: 0.9,
            burst_len: 32,
            burst_gap_secs: 1,
        },
        reraise_prob: 0.0,
    };
    let stream_config = storm(23);

    // --- Claim 1: byte-identical logs across shard counts (real engine).
    let engine_shards: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 8] };
    let mut logs: Vec<String> = Vec::new();
    for &shards in engine_shards {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers: 4,
                queue_capacity: 32,
                shards,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            },
        );
        logs.push(engine.run(&test, &stream_config).log);
    }
    for (i, log) in logs.iter().enumerate().skip(1) {
        assert_eq!(
            log, &logs[0],
            "{} shards diverged from the unsharded prediction log",
            engine_shards[i]
        );
    }
    println!(
        "prediction log identical across shard counts {engine_shards:?} ✓ ({} events)",
        logs[0].lines().count()
    );

    // --- Claim 2: shard-lock DES sweep, aggregating several tenant
    // streams of the same storm onto the one shared index plane. Each
    // tenant's stream is planned exactly like the engine plans it
    // (schedule → ex-ante costs → admission); the admitted retrieval
    // ops then contend on the shard locks together.
    const TENANTS: u64 = 8;
    let cost_seed = EngineConfig::default().cost_seed;
    // (arrival, retrieval cost, incident) per admitted event; stable
    // sort by arrival keeps tenant-order ties deterministic.
    let mut admitted: Vec<(u64, u64, usize)> = Vec::new();
    for tenant in 0..TENANTS {
        let events = stream::schedule(&test, &storm(23 + tenant));
        let costs: Vec<cost::StageCosts> = events
            .iter()
            .map(|e| cost::estimate(&test[e.incident_idx].alert, cost_seed))
            .collect();
        let inputs: Vec<admission::AdmissionInput> = events
            .iter()
            .zip(&costs)
            .map(|(e, c)| admission::AdmissionInput {
                at: e.at,
                severity: test[e.incident_idx].alert.severity,
                full_cost_secs: c.total(),
                degraded_cost_secs: c.degraded_total(),
            })
            .collect();
        let plan = admission::plan(&inputs, &AdmissionConfig::unbounded());
        for (i, (e, c)) in events.iter().zip(&costs).enumerate() {
            if plan.dispositions[i] != Disposition::Shed {
                admitted.push((e.at.as_secs(), c.retrieve_secs, e.incident_idx));
            }
        }
    }
    admitted.sort_by_key(|&(at, _, _)| at);

    const REQUESTERS: usize = 12;
    let shard_counts = [1usize, 2, 4, 8];
    let mut sweep_rows = Vec::new();
    println!(
        "\n{:>7} {:>16} {:>10} {:>10} {:>12} {:>11}",
        "shards", "throughput/h", "wait p50", "wait p99", "makespan s", "peak queue"
    );
    for &shards in &shard_counts {
        // One op per admitted event: the retrieval stage's virtual cost,
        // holding the lock of the shard its category routes to.
        let ops: Vec<ShardOp> = admitted
            .iter()
            .map(|&(at, retrieve_secs, incident_idx)| ShardOp {
                arrival_secs: at,
                service_secs: retrieve_secs,
                shard: shard_for_category(&test[incident_idx].category, shards),
            })
            .collect();
        let stats = simulate_shard_locks(&ops, REQUESTERS, shards);
        println!(
            "{:>7} {:>16.2} {:>10} {:>10} {:>12} {:>11}",
            shards,
            stats.throughput_per_hour(),
            stats.waits.percentile(0.50),
            stats.waits.percentile(0.99),
            stats.makespan_secs,
            stats.peak_queue_depth,
        );
        sweep_rows.push(serde_json::json!({
            "shards": shards,
            "requesters": REQUESTERS,
            "throughput_per_hour": stats.throughput_per_hour(),
            "wait_p50_secs": stats.waits.percentile(0.50),
            "wait_p99_secs": stats.waits.percentile(0.99),
            "makespan_secs": stats.makespan_secs,
            "peak_queue_depth": stats.peak_queue_depth,
            "completed": stats.completed,
        }));
    }
    let tp = |row: &serde_json::Value| match row
        .as_map()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "throughput_per_hour")
        .map(|(_, v)| v)
    {
        Some(serde_json::Value::F64(f)) => *f,
        other => panic!("throughput field missing: {other:?}"),
    };
    for pair in sweep_rows.windows(2) {
        if smoke {
            assert!(
                tp(&pair[1]) >= tp(&pair[0]),
                "more shards must never lower index-plane throughput"
            );
        } else {
            assert!(
                tp(&pair[1]) > tp(&pair[0]),
                "index-plane throughput must increase strictly from 1 to 8 shards"
            );
        }
    }
    println!(
        "\nindex-plane throughput {} from 1 to 8 shards ✓",
        if smoke {
            "is monotone"
        } else {
            "increases strictly"
        }
    );

    write_root_results(
        "BENCH_serve_shards",
        &serde_json::json!({
            "stream": {
                "seed": stream_config.seed,
                "model": "bursty(mean_gap=2s, p=0.9, len=32, gap=1s), no re-raises",
                "reraise_prob": stream_config.reraise_prob,
                "tenant_streams": TENANTS,
                "test_incidents": test.len(),
                "aggregated_ops": admitted.len(),
            },
            "engine_log_identical_across_shards": engine_shards,
            "sweep": sweep_rows,
            "smoke": smoke,
        }),
        smoke,
    );
}
