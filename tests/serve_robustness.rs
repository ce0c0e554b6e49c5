//! Crash-tolerance integration tests of the serving engine: injected
//! worker faults must never lose an event or leak into the prediction
//! log, poison pills must quarantine instead of aborting the process,
//! collection failures must degrade a single event, and a run killed at
//! a virtual instant must resume from its write-ahead log with a
//! byte-identical prediction log.

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::{CollectionStage, ContextSpec};
use rcacopilot::embed::{FastTextConfig, FeatureExtractor};
use rcacopilot::handlers::HandlerRegistry;
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, EventOutcome, IndexMode, ServeEngine,
    StreamConfig, WorkerFaultConfig, WriteAheadLog,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident, IncidentDataset, Topology};
use rcacopilot::telemetry::SimTime;
use serde_json::Value;

fn dataset() -> IncidentDataset {
    generate_dataset(&CampaignConfig {
        seed: 19,
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

fn quick_config() -> RcaCopilotConfig {
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
}

fn trained() -> (RcaCopilot, Vec<Incident>) {
    let dataset = dataset();
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let copilot = RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        quick_config(),
    );
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(24)
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    (copilot, test)
}

/// Looks up a (possibly nested) field of a JSON report map.
fn field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .as_map()
            .expect("report node is a map")
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("report field {key} missing"));
    }
    cur
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

/// 20% worker faults (panics + stalls + transient errors): every stream
/// event must still complete — predicted or quarantined, never lost —
/// and the prediction log must stay byte-identical across worker counts.
#[test]
fn twenty_percent_worker_faults_lose_nothing_and_stay_deterministic() {
    let (copilot, test) = trained();
    let stream = StreamConfig {
        seed: 4,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 600 },
        reraise_prob: 0.2,
    };
    let faults = WorkerFaultConfig {
        panic_per_mille: 120,
        stall_per_mille: 50,
        error_per_mille: 30,
        ..WorkerFaultConfig::default()
    };
    let run = |workers: usize| {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                faults,
                ..EngineConfig::default()
            },
        );
        engine.run(&test, &stream)
    };
    let out1 = run(1);
    let out4 = run(4);
    assert_eq!(
        out1.records.len(),
        out1.planned,
        "every event must complete under 20% worker faults"
    );
    assert!(!out1.crashed());
    assert_eq!(
        out1.log, out4.log,
        "fault handling leaked worker count into the log"
    );
    let panics = as_u64(field(&out1.report, &["faults", "worker_panics"]));
    let respawns = as_u64(field(&out1.report, &["faults", "worker_respawns"]));
    assert!(panics > 0, "the seeded plan must fire panics at 12%");
    assert_eq!(panics, respawns, "every kill must respawn a worker");
    let redispatches = as_u64(field(&out1.report, &["faults", "redispatches"]));
    assert!(redispatches > 0, "lost attempts must be re-dispatched");
}

/// With a 100% panic rate every event is a poison pill: after the
/// default two worker kills each must be quarantined to a dead-letter
/// `[pipeline failure]` record — the process must not abort and the
/// stream must still finish in order.
#[test]
fn poison_pills_quarantine_to_dead_letter_records() {
    let (copilot, test) = trained();
    let engine = ServeEngine::new(
        copilot,
        EngineConfig {
            workers: 3,
            admission: AdmissionConfig::unbounded(),
            faults: WorkerFaultConfig {
                panic_per_mille: 1000,
                ..WorkerFaultConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let out = engine.run(&test, &StreamConfig::replay());
    assert_eq!(out.records.len(), test.len());
    for (i, record) in out.records.iter().enumerate() {
        assert_eq!(record.seq, i, "records must stay in stream order");
        match &record.outcome {
            EventOutcome::Failed { reason } => {
                assert!(
                    reason.contains("[pipeline failure] quarantined: kills=2"),
                    "unexpected reason {reason:?}"
                );
            }
            other => panic!("event {i} should be quarantined, got {other:?}"),
        }
    }
    let quarantined = as_u64(field(&out.report, &["faults", "quarantined"]));
    assert_eq!(quarantined as usize, test.len());
    assert!(out.log.contains("verdict=failed"));
}

/// A collection stage with no registered handlers fails every event:
/// each must degrade to a `[pipeline failure] collection` dead-letter
/// record instead of panicking the engine.
#[test]
fn collection_failure_degrades_the_event_not_the_run() {
    let (copilot, test) = trained();
    let engine = ServeEngine::with_stage(
        copilot,
        CollectionStage::new(HandlerRegistry::new()),
        EngineConfig {
            workers: 2,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
    );
    let out = engine.run(&test, &StreamConfig::replay());
    assert_eq!(out.records.len(), test.len());
    assert!(out.records.iter().all(|r| matches!(
        &r.outcome,
        EventOutcome::Failed { reason } if reason.contains("[pipeline failure] collection")
    )));
    let failures = as_u64(field(&out.report, &["faults", "collection_failures"]));
    assert_eq!(failures as usize, test.len());
}

/// A zero-fault journaled run must produce exactly the log of the plain
/// engine: the WAL layer is observationally free when nothing crashes.
#[test]
fn journaling_is_free_when_nothing_crashes() {
    let (copilot, test) = trained();
    let stream = StreamConfig {
        seed: 9,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 900 },
        reraise_prob: 0.25,
    };
    let config = EngineConfig {
        workers: 2,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        checkpoint_every: 4,
        ..EngineConfig::default()
    };
    let engine = ServeEngine::new(copilot, config.clone());
    let plain = engine.run(&test, &stream);
    let mut wal = WriteAheadLog::new();
    let journaled = engine
        .run_with_wal(&test, &stream, &mut wal)
        .expect("fresh journal");
    assert_eq!(plain.log, journaled.log, "journaling changed the output");
    assert!(!wal.is_empty(), "commits must be journaled");
    assert!(
        wal.checkpointed() > 0,
        "checkpoint folding must engage at checkpoint_every=4"
    );
}

/// The tentpole invariant: an engine killed at a seeded virtual time —
/// journal serialized to bytes, process gone — resumes from the reloaded
/// journal with a prediction log byte-identical to the uninterrupted
/// run, for 1 and 4 workers, at several crash points, with faults and
/// checkpoint folding enabled.
#[test]
fn crash_at_virtual_time_recovers_byte_identically() {
    let (copilot, test) = trained();
    let stream = StreamConfig {
        seed: 6,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 700 },
        reraise_prob: 0.2,
    };
    let faults = WorkerFaultConfig {
        panic_per_mille: 60,
        stall_per_mille: 40,
        error_per_mille: 30,
        ..WorkerFaultConfig::default()
    };
    let base = EngineConfig {
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        faults,
        checkpoint_every: 3,
        ..EngineConfig::default()
    };

    // Uninterrupted reference.
    let reference = {
        let engine = ServeEngine::new(
            copilot.clone(),
            EngineConfig {
                workers: 2,
                ..base.clone()
            },
        );
        let mut wal = WriteAheadLog::new();
        engine
            .run_with_wal(&test, &stream, &mut wal)
            .expect("fresh journal")
    };
    // Re-raises make the stream longer than the incident slice.
    assert_eq!(reference.records.len(), reference.planned);
    assert!(!reference.crashed());

    // Crash points: virtual arrival instants one, two and three quarters
    // into the stream.
    let n = reference.records.len();
    let crash_times: Vec<SimTime> = [n / 4, n / 2, 3 * n / 4]
        .iter()
        .map(|&k| reference.records[k].at)
        .collect();

    for &crash_at in &crash_times {
        for workers in [1usize, 4] {
            let crashed = ServeEngine::new(
                copilot.clone(),
                EngineConfig {
                    workers,
                    crash_at: Some(crash_at),
                    ..base.clone()
                },
            );
            let mut wal = WriteAheadLog::new();
            let partial = crashed
                .run_with_wal(&test, &stream, &mut wal)
                .expect("fresh journal");
            assert!(
                partial.crashed(),
                "crash at {}s must cut the stream short",
                crash_at.as_secs()
            );
            assert!(
                reference.log.starts_with(&partial.log),
                "the committed prefix must match the uninterrupted run"
            );
            // Simulate process death: only the serialized journal
            // survives.
            let bytes = wal.serialized();
            let mut reloaded = WriteAheadLog::load(&bytes);
            let resumed = ServeEngine::new(
                copilot.clone(),
                EngineConfig {
                    workers,
                    ..base.clone()
                },
            )
            .run_with_wal(&test, &stream, &mut reloaded)
            .expect("recoverable journal");
            assert_eq!(
                resumed.log,
                reference.log,
                "resume after crash at {}s with {workers} workers diverged",
                crash_at.as_secs()
            );
            assert_eq!(resumed.records.len(), reference.records.len());
        }
    }
}
