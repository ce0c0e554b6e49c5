//! Crash-recovery and worker-fault sweeps for the serving engine.
//!
//! Two deterministic experiments, both asserted (not just reported):
//!
//! 1. **Crash/recovery sweep**: the engine is killed at seeded virtual
//!    times (¼, ½, ¾ of the stream) with the write-ahead log as the only
//!    surviving state, then resumed — for 1 and 4 workers, with worker
//!    faults and checkpoint folding enabled. The resumed prediction log
//!    must be byte-identical to an uninterrupted run's.
//! 2. **Fault-rate sweep**: worker fault pressure (panics + stalls +
//!    transient errors) from 0‰ to 200‰ per attempt. At every rate, every
//!    stream event must complete (predicted or quarantined dead-letter —
//!    never lost, never a process abort) and the log must be identical
//!    across worker counts.
//!
//! Results go to `BENCH_serve_faults.json` at the repository root.
//! `--smoke` shrinks the campaign for CI.

use rcacopilot_bench::{
    banner, smoke_copilot_config, smoke_dataset, write_root_results, SPLIT_SEED, TRAIN_FRAC,
};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, EventOutcome, IndexMode, ServeEngine,
    StreamConfig, WorkerFaultConfig, WriteAheadLog,
};
use rcacopilot_simcloud::Incident;
use rcacopilot_telemetry::SimTime;
use serde_json::Value;

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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Serving engine: crash recovery + fault sweep (smoke)"
    } else {
        "Serving engine: crash recovery + fault sweep"
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
        smoke_copilot_config()
    } else {
        RcaCopilotConfig::default()
    };
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), copilot_config);
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(if smoke { 20 } else { 120 })
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    println!("train={} test={} (streamed)", split.train.len(), test.len());

    let stream = StreamConfig {
        seed: 6,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 700 },
        reraise_prob: 0.2,
    };
    let worker_counts: [usize; 2] = [1, 4];
    let base = EngineConfig {
        queue_capacity: 32,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        checkpoint_every: 3,
        ..EngineConfig::default()
    };

    // ---- 1. Crash/recovery sweep ------------------------------------
    let crash_faults = WorkerFaultConfig {
        panic_per_mille: 60,
        stall_per_mille: 40,
        error_per_mille: 30,
        ..WorkerFaultConfig::default()
    };
    let reference = ServeEngine::new(
        copilot.clone(),
        EngineConfig {
            workers: 2,
            faults: crash_faults,
            ..base.clone()
        },
    )
    .run_with_wal(&test, &stream, &mut WriteAheadLog::new())
    .expect("fresh journal");
    assert_eq!(reference.records.len(), reference.planned);
    let n = reference.records.len();
    let crash_points: Vec<(usize, SimTime)> = [n / 4, n / 2, 3 * n / 4]
        .iter()
        .map(|&k| (k, reference.records[k].at))
        .collect();

    println!(
        "\n{:>10} {:>8} {:>10} {:>12} {:>10}",
        "crash at", "workers", "committed", "wal lines", "identical"
    );
    let mut crash_rows = Vec::new();
    for &(k, crash_at) in &crash_points {
        for &workers in &worker_counts {
            let mut wal = WriteAheadLog::new();
            let partial = ServeEngine::new(
                copilot.clone(),
                EngineConfig {
                    workers,
                    faults: crash_faults,
                    crash_at: Some(crash_at),
                    ..base.clone()
                },
            )
            .run_with_wal(&test, &stream, &mut wal)
            .expect("fresh journal");
            assert!(partial.crashed(), "crash point must cut the stream");
            assert!(
                reference.log.starts_with(&partial.log),
                "committed prefix diverged before the crash"
            );
            // Only the serialized journal survives the "process death".
            let bytes = wal.serialized();
            let mut reloaded = WriteAheadLog::load(&bytes);
            let resumed = ServeEngine::new(
                copilot.clone(),
                EngineConfig {
                    workers,
                    faults: crash_faults,
                    ..base.clone()
                },
            )
            .run_with_wal(&test, &stream, &mut reloaded)
            .expect("recoverable journal");
            assert_eq!(
                resumed.log, reference.log,
                "recovery must be byte-identical (crash at {k}, {workers} workers)"
            );
            println!(
                "{:>9}s {:>8} {:>10} {:>12} {:>10}",
                crash_at.as_secs(),
                workers,
                partial.records.len(),
                wal.len(),
                "yes"
            );
            crash_rows.push(serde_json::json!({
                "crash_at_secs": crash_at.as_secs(),
                "crash_event_index": k,
                "workers": workers,
                "committed_before_crash": partial.records.len(),
                "planned": partial.planned,
                "wal_lines": wal.len(),
                "wal_bytes": bytes.len(),
                "wal_checkpointed": wal.checkpointed(),
                "byte_identical_after_recovery": true,
            }));
        }
    }
    println!("crash recovery byte-identical at every point and worker count ✓");

    // ---- 2. Fault-rate sweep ----------------------------------------
    println!(
        "\n{:>9} {:>8} {:>10} {:>12} {:>9} {:>13}",
        "faults ‰", "panics", "respawns", "redispatches", "dead", "predicted"
    );
    let mut fault_rows = Vec::new();
    for rate in [0u16, 50, 100, 200] {
        let faults = WorkerFaultConfig {
            panic_per_mille: rate * 3 / 5,
            stall_per_mille: rate / 5,
            error_per_mille: rate - rate * 3 / 5 - rate / 5,
            ..WorkerFaultConfig::default()
        };
        let mut logs = Vec::new();
        let mut last = None;
        for &workers in &worker_counts {
            let out = ServeEngine::new(
                copilot.clone(),
                EngineConfig {
                    workers,
                    faults,
                    ..base.clone()
                },
            )
            .run(&test, &stream);
            assert_eq!(
                out.records.len(),
                out.planned,
                "every event must complete at {rate}‰ faults"
            );
            logs.push(out.log.clone());
            last = Some(out);
        }
        for log in &logs[1..] {
            assert_eq!(
                log, &logs[0],
                "fault outcomes leaked worker count at {rate}‰"
            );
        }
        let out = last.expect("at least one worker count");
        let predicted = out
            .records
            .iter()
            .filter(|r| matches!(r.outcome, EventOutcome::Predicted { .. }))
            .count();
        let dead = out
            .records
            .iter()
            .filter(|r| matches!(r.outcome, EventOutcome::Failed { .. }))
            .count();
        let stat = |name: &str| as_u64(field(&out.report, &["faults", name]));
        println!(
            "{:>9} {:>8} {:>10} {:>12} {:>9} {:>13}",
            rate,
            stat("worker_panics"),
            stat("worker_respawns"),
            stat("redispatches"),
            dead,
            predicted,
        );
        fault_rows.push(serde_json::json!({
            "fault_per_mille": rate,
            "panic_per_mille": faults.panic_per_mille,
            "stall_per_mille": faults.stall_per_mille,
            "error_per_mille": faults.error_per_mille,
            "events": out.planned,
            "predicted": predicted,
            "dead_letters": dead,
            "worker_panics": stat("worker_panics"),
            "worker_respawns": stat("worker_respawns"),
            "injected_stalls": stat("injected_stalls"),
            "injected_errors": stat("injected_errors"),
            "redispatches": stat("redispatches"),
            "quarantined": stat("quarantined"),
            "poison_recoveries": stat("poison_recoveries"),
            "log_identical_across_workers": true,
        }));
    }
    println!("no event lost at any fault rate; logs worker-independent ✓");

    write_root_results(
        "BENCH_serve_faults",
        &serde_json::json!({
            "stream": {
                "seed": stream.seed,
                "model": "poisson(mean_gap=700s)",
                "reraise_prob": stream.reraise_prob,
                "test_incidents": test.len(),
                "events": reference.planned,
            },
            "engine": {
                "index_mode": "online",
                "checkpoint_every": base.checkpoint_every,
                "quarantine_kills": base.quarantine_kills,
                "max_attempts": base.max_attempts,
            },
            "crash_recovery": crash_rows,
            "fault_sweep": fault_rows,
            "smoke": smoke,
        }),
        smoke,
    );
}
