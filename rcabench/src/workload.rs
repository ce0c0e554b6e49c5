//! The four workloads: how each builds its events from the seed, which
//! engine configuration serves them, and one run of the engine over them.

use rcacopilot::core::memo::{ExactMemo, MemoPolicy, NoMemo};
use rcacopilot::core::RcaCopilot;
use rcacopilot::serve::engine::WallStats;
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, BreakerConfig, ClockConfig, EngineConfig, EventOutcome,
    EventRecord, IndexMode, MultiTenantConfig, MultiTenantEngine, RealClockConfig, ServeEngine,
    StreamConfig, WriteAheadLog,
};
use rcacopilot::simcloud::tenancy::{zipf_fleet, zipf_volumes, TenantFleetConfig};
use rcacopilot::simcloud::{replicate_partition, Incident, TenantStormPlan};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Copies of the test set each replay run streams at the campaign times,
/// so that one engine run has enough samples for its p99.
pub const REPLAY_COPIES: usize = 7;
/// Passes over the test set one flapping-storm stream makes.
pub const STORM_PASSES: usize = 5;
/// Tenants of the fleet.
pub const FLEET_TENANTS: usize = 32;
/// Events the fleet's incidents are spread over before re-raises.
pub const FLEET_EVENTS: usize = 1_650;
/// Zipf exponent of the fleet's tenant volumes: the head tenant gets
/// ≈62% of the events, enough for a p99 of its own.
pub const FLEET_ZIPF: f64 = 2.0;
/// WAL checkpoint fold cadence of the journaled workload, in commits.
pub const CHECKPOINT_EVERY: usize = 64;
/// Worker kills and attempts before quarantine under injected faults:
/// high enough that every event is eventually served, so no event fails.
const PATIENT_ATTEMPTS: u32 = 1_000;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The test incidents at campaign times on the frozen index, no memo.
    ReplayCold,
    /// Alert storms with duplicate re-raises on the online index, exact memo.
    FlappingStorm,
    /// The test incidents at campaign times with a durable, folded WAL.
    JournaledReplay,
    /// A 32-tenant Zipf fleet with injected worker faults.
    TenantFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayCold,
        Workload::FlappingStorm,
        Workload::JournaledReplay,
        Workload::TenantFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayCold => "replay_cold",
            Workload::FlappingStorm => "flapping_storm",
            Workload::JournaledReplay => "journaled_replay",
            Workload::TenantFleet => "tenant_fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn index_mode(self) -> IndexMode {
        match self {
            Workload::FlappingStorm | Workload::JournaledReplay => IndexMode::Online,
            Workload::ReplayCold | Workload::TenantFleet => IndexMode::Frozen,
        }
    }

    fn memo(self) -> Arc<dyn MemoPolicy> {
        match self {
            // Replay copies are byte-identical to the original: a memo
            // would serve every copy after the first from cache.
            Workload::ReplayCold | Workload::JournaledReplay => Arc::new(NoMemo),
            Workload::FlappingStorm | Workload::TenantFleet => Arc::new(ExactMemo),
        }
    }

    /// The engine configuration this workload runs under, on `clock`
    /// with `workers` threads.
    pub fn engine_config(self, clock: ClockConfig, workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            index_mode: self.index_mode(),
            // Every event is queued up front and served: nothing is shed.
            admission: AdmissionConfig::unbounded(),
            memo: self.memo(),
            checkpoint_every: if self == Workload::JournaledReplay {
                CHECKPOINT_EVERY
            } else {
                0
            },
            breaker: (self == Workload::TenantFleet).then(BreakerConfig::default),
            quarantine_kills: PATIENT_ATTEMPTS,
            max_attempts: PATIENT_ATTEMPTS,
            clock,
            ..EngineConfig::default()
        }
    }
}

/// The real clock every measured run uses: wall time, no modeled sleeps,
/// no arrival pacing — the engine runs at the speed of its own code.
pub fn real_clock() -> ClockConfig {
    ClockConfig::Real(RealClockConfig {
        nanos_per_virtual_sec: 0,
        pace_arrivals: false,
    })
}

/// The events of one workload run, made from the seed.
#[derive(Debug, Clone)]
pub enum Input {
    /// One engine over one stream.
    Single {
        /// The incidents the stream is scheduled over.
        incidents: Vec<Incident>,
        /// The stream shape.
        stream: StreamConfig,
    },
    /// One multi-tenant plane: per-tenant plans and incident slices.
    Fleet {
        /// Tenant plans, rank order.
        plans: Vec<TenantStormPlan>,
        /// Each tenant's incidents, aligned with `plans`.
        parts: Vec<Vec<Incident>>,
    },
}

/// Builds the workload's input from the test incidents and the seed.
pub fn input(workload: Workload, test: &[Incident], seed: u64) -> Input {
    match workload {
        // The campaign timeline is the input; copies share their
        // original's arrival instant. The seed does not change a replay.
        Workload::ReplayCold | Workload::JournaledReplay => Input::Single {
            incidents: cycle(test, REPLAY_COPIES),
            stream: StreamConfig {
                seed,
                ..StreamConfig::replay()
            },
        },
        Workload::FlappingStorm => {
            // The stream shape of the fleet's flapping-storm tenants,
            // without their faults: storms of 8 alerts 2 s apart, half
            // of all alerts re-raised.
            let plan = TenantStormPlan::flapping_storm(Default::default(), seed);
            Input::Single {
                incidents: cycle(test, STORM_PASSES),
                stream: StreamConfig {
                    seed,
                    arrivals: ArrivalModel::Bursty {
                        mean_gap_secs: plan.mean_gap_secs,
                        burst_prob: plan.burst_prob,
                        burst_len: plan.burst_len,
                        burst_gap_secs: plan.burst_gap_secs,
                    },
                    reraise_prob: plan.reraise_prob,
                },
            }
        }
        Workload::TenantFleet => {
            // The fleet's layout — weights, volumes, arrival processes,
            // which tenant storms — is fixed, so that every seed streams
            // the same events; the seed draws the injected faults.
            let config = TenantFleetConfig {
                tenants: FLEET_TENANTS,
                total_events: FLEET_EVENTS,
                zipf_exponent: FLEET_ZIPF,
                // Uncapped, so the head tenant keeps its Zipf share.
                max_share: 1.0,
                ..TenantFleetConfig::default()
            };
            let mut plans = zipf_fleet(&config);
            if plans.iter().all(|p| p.total_fault_per_mille() == 0) {
                // Small fleets can draw no storm at all; keep one.
                let quiet = plans[FLEET_TENANTS / 2];
                plans[FLEET_TENANTS / 2] = TenantStormPlan {
                    weight: quiet.weight,
                    ..TenantStormPlan::flapping_storm(quiet.tenant, quiet.stream_seed)
                };
            }
            for plan in &mut plans {
                plan.fault_seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            let parts = replicate_partition(test, &plans, &zipf_volumes(&config));
            Input::Fleet { plans, parts }
        }
    }
}

fn cycle(incidents: &[Incident], passes: usize) -> Vec<Incident> {
    (0..passes)
        .flat_map(|_| incidents.iter().cloned())
        .collect()
}

/// Everything one engine run produced that the benchmark reads.
pub struct RunOutput {
    /// Per-part event records (one part per tenant; one part otherwise).
    pub records: Vec<Vec<EventRecord>>,
    /// The deterministic prediction log (merged for a fleet).
    pub log: String,
    /// Events the stream planned.
    pub planned: usize,
    /// Wall seconds of the engine call.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) during the engine call.
    pub cpu_s: f64,
    /// Wall latency statistics of the run's engine — for a fleet, of its
    /// head tenant, the only tenant with enough events for a p99.
    pub latency: Option<WallStats>,
    /// Engine reports (one per tenant for a fleet).
    pub reports: Vec<serde_json::Value>,
}

impl RunOutput {
    /// Events committed per wall second. Every planned event commits,
    /// predicted or not, when no crash is simulated.
    pub fn events_per_s(&self) -> f64 {
        self.records.iter().map(Vec::len).sum::<usize>() as f64 / self.wall_s
    }

    /// Process CPU milliseconds per planned event.
    pub fn cpu_ms_per_event(&self) -> f64 {
        self.cpu_s * 1e3 / self.planned as f64
    }

    /// Events that produced no prediction: (failed, shed).
    pub fn unserved(&self) -> (usize, usize) {
        let mut failed = 0;
        let mut shed = 0;
        for r in self.records.iter().flatten() {
            match r.outcome {
                EventOutcome::Failed { .. } => failed += 1,
                EventOutcome::Shed { .. } => shed += 1,
                EventOutcome::Predicted { .. } => {}
            }
        }
        (failed, shed)
    }

    /// Events whose predicted label equals the incident's category.
    pub fn correct_labels(&self, input: &Input) -> usize {
        let mut correct = 0;
        for (t, part) in self.records.iter().enumerate() {
            let incidents = match input {
                Input::Single { incidents, .. } => incidents,
                Input::Fleet { parts, .. } => &parts[t],
            };
            correct += part
                .iter()
                .filter(|r| match &r.outcome {
                    EventOutcome::Predicted { prediction, .. } => {
                        prediction.label == incidents[r.incident_idx].category
                    }
                    _ => false,
                })
                .count();
        }
        correct
    }

    /// Sum of an unsigned counter at `path` over every report.
    pub fn report_sum(&self, path: &[&str]) -> u64 {
        self.reports.iter().map(|r| report_u64(r, path)).sum()
    }

    /// Maximum of an unsigned counter at `path` over every report.
    pub fn report_max(&self, path: &[&str]) -> u64 {
        self.reports
            .iter()
            .map(|r| report_u64(r, path))
            .max()
            .unwrap_or(0)
    }
}

/// Reads an unsigned number at `path` of an engine report (0 if absent).
fn report_u64(report: &serde_json::Value, path: &[&str]) -> u64 {
    let mut node = report;
    for key in path {
        match node.as_map() {
            Some(fields) => node = serde_json::Value::field(fields, key),
            None => return 0,
        }
    }
    match node {
        serde_json::Value::U64(n) => *n,
        _ => 0,
    }
}

/// How one engine run is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// Virtual clock, one worker per engine, in-memory journal: the
    /// deterministic reference whose log every measured run must match.
    Reference,
    /// Real clock, `threads` workers (or tenant shards), durable journal.
    Measured {
        /// Worker threads, or tenant shards for a fleet.
        threads: usize,
    },
}

/// Runs the workload's engine once over `input`. `scratch` is a
/// directory for the durable journal file of a measured journaled run.
///
/// # Errors
///
/// Returns a description of a journal or tenant-plane error.
pub fn execute(
    workload: Workload,
    copilot: &Arc<RcaCopilot>,
    input: &Input,
    kind: RunKind,
    scratch: &Path,
) -> Result<RunOutput, String> {
    let (clock, threads) = match kind {
        RunKind::Reference => (ClockConfig::Virtual, 1),
        RunKind::Measured { threads } => (real_clock(), threads),
    };
    match input {
        Input::Single { incidents, stream } => {
            let engine =
                ServeEngine::shared(Arc::clone(copilot), workload.engine_config(clock, threads));
            let journal = journal_path(scratch, "engine");
            let mut wal = match (workload, kind) {
                (Workload::JournaledReplay, RunKind::Measured { .. }) => {
                    // A fresh file per run: an existing journal would be
                    // recovered and the run resumed past its commits.
                    remove_if_present(&journal)?;
                    Some(
                        WriteAheadLog::open_durable(&journal)
                            .map_err(|e| format!("open journal: {e}"))?,
                    )
                }
                (Workload::JournaledReplay, RunKind::Reference) => Some(WriteAheadLog::new()),
                _ => None,
            };
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            let out = match wal.as_mut() {
                Some(wal) => engine
                    .run_with_wal(incidents, stream, wal)
                    .map_err(|e| format!("journaled run: {e}"))?,
                None => engine.run(incidents, stream),
            };
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
            drop(wal);
            remove_if_present(&journal)?;
            Ok(RunOutput {
                planned: out.planned,
                records: vec![out.records],
                log: out.log,
                wall_s,
                cpu_s,
                latency: out.wall,
                reports: vec![out.report],
            })
        }
        Input::Fleet { plans, parts } => {
            let config = MultiTenantConfig {
                base: workload.engine_config(clock, 1),
                // Tenant logs are byte-identical at any shard count, so
                // the reference may use every core.
                shards: if kind == RunKind::Reference {
                    nproc()
                } else {
                    threads
                },
                tenant_workers: Some(1),
                ..MultiTenantConfig::default()
            };
            let plane = MultiTenantEngine::from_plans_shared(Arc::clone(copilot), config, plans)
                .map_err(|e| format!("tenant plane: {e}"))?;
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            let out = plane.run(parts).map_err(|e| format!("tenant run: {e}"))?;
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
            let latency = out
                .tenants
                .iter()
                .max_by_key(|t| t.outcome.records.len())
                .and_then(|t| t.outcome.wall);
            let planned = out.tenants.iter().map(|t| t.outcome.planned).sum();
            let (records, reports) = out
                .tenants
                .into_iter()
                .map(|t| (t.outcome.records, t.outcome.report))
                .unzip();
            Ok(RunOutput {
                planned,
                records,
                log: out.log,
                wall_s,
                cpu_s,
                latency,
                reports,
            })
        }
    }
}

/// The journal file `tag` in the process's scratch directory.
pub fn journal_path(scratch: &Path, tag: &str) -> PathBuf {
    scratch.join(format!("{tag}.wal"))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// User + system CPU seconds of this process so far, every thread
/// included (exited threads too), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    /// `/proc` reports CPU time in USER_HZ ticks, 100 per second on Linux.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesized command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric stat field") };
    // utime and stime are fields 14 and 15.
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{CAMPAIGN_SEED, SPLIT_SEED, TRAIN_FRAC};
    use rcacopilot::serve::stream::{schedule, StreamEvent};
    use rcacopilot::simcloud::{generate_dataset, CampaignConfig};

    fn test_incidents() -> Vec<Incident> {
        let dataset = generate_dataset(&CampaignConfig {
            seed: CAMPAIGN_SEED,
            ..CampaignConfig::default()
        });
        let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
        split
            .test
            .iter()
            .map(|&i| dataset.incidents()[i].clone())
            .collect()
    }

    /// The scheduled events of an input: (tenant slot, event) pairs.
    fn events(input: &Input) -> Vec<(usize, StreamEvent, u64)> {
        match input {
            Input::Single { incidents, stream } => schedule(incidents, stream)
                .into_iter()
                .map(|e| (0, e, incidents[e.incident_idx].alert.incident.0))
                .collect(),
            Input::Fleet { plans, parts } => plans
                .iter()
                .zip(parts)
                .enumerate()
                .flat_map(|(t, (plan, part))| {
                    let spec = rcacopilot::serve::TenantSpec::from_plan(plan);
                    schedule(part, &spec.stream)
                        .into_iter()
                        .map(move |e| (t, e, part[e.incident_idx].alert.incident.0))
                })
                .collect(),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_event_list() {
        let test = test_incidents();
        for w in Workload::ALL {
            let a = events(&input(w, &test, 3));
            let b = events(&input(w, &test, 3));
            assert!(!a.is_empty(), "{} plans events", w.name());
            assert_eq!(a, b, "{} is a function of its seed", w.name());
        }
    }

    #[test]
    fn the_seed_moves_storm_arrivals_and_fleet_faults_only() {
        let test = test_incidents();
        for w in Workload::ALL {
            let (a, b) = (input(w, &test, 3), input(w, &test, 4));
            let same_events = events(&a) == events(&b);
            match (&a, &b) {
                (Input::Fleet { plans: pa, .. }, Input::Fleet { plans: pb, .. }) => {
                    assert!(same_events, "the fleet's layout is fixed");
                    assert!(pa.iter().zip(pb).all(|(x, y)| x.fault_seed != y.fault_seed));
                }
                _ => assert_eq!(same_events, w != Workload::FlappingStorm, "{}", w.name()),
            }
        }
    }

    #[test]
    fn every_latency_sample_set_supports_a_p99() {
        let test = test_incidents();
        for seed in [1, 2, 1009] {
            for w in Workload::ALL {
                let events = events(&input(w, &test, seed));
                let busiest = (0..FLEET_TENANTS)
                    .map(|t| events.iter().filter(|(slot, _, _)| *slot == t).count())
                    .max()
                    .unwrap_or(0);
                assert!(
                    crate::stats::tail_supported(busiest, 0.99),
                    "{} seed {seed}: {busiest} events in its largest engine run",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn fleet_has_a_faulty_storm_tenant() {
        let Input::Fleet { plans, .. } = input(Workload::TenantFleet, &test_incidents(), 1) else {
            panic!("tenant_fleet builds a fleet");
        };
        assert_eq!(plans.len(), FLEET_TENANTS);
        assert!(plans.iter().any(|p| p.total_fault_per_mille() > 0));
    }
}
