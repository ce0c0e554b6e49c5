//! Crash-point torture fuzzer for the WAL storage fault plane.
//!
//! Runs the serving engine over a seeded simulated disk
//! ([`SimDisk`]), then sweeps **crash points** — every recorded fsync
//! barrier × sampled byte offsets of the un-fsynced window — and **fault
//! mixes** (clean crashes, torn pages, bit rot, `ENOSPC` budgets, flaky
//! write/fsync I/O) across worker × shard × tenant geometries. Every
//! image is recovered through the normal load path and asserted:
//!
//! - **zero acked loss**: a commit acknowledged by a completed fsync is
//!   recovered at every crash point of every crash-only mix;
//! - **byte-identical replay**: resumed runs reproduce the baseline
//!   prediction log exactly (sampled per mix);
//! - **quarantine, not fatality**: corrupt records surface as counted
//!   dead letters and recovery always succeeds;
//! - **per-tenant isolation**: in the multi-tenant geometry, damage to
//!   one tenant's records never moves another tenant's watermark.
//!
//! Results (per-mix point counts, loss/quarantine tallies and recovery
//! latency percentiles) go to `BENCH_wal_torture.json` at the repository
//! root. `--smoke` shrinks the sweep for CI; the full run covers 200+
//! points per geometry.

use rcacopilot_bench::{banner, write_root_results};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
use rcacopilot_serve::{
    AdmissionConfig, ArrivalModel, CrashPoint, EngineConfig, IndexMode, MultiTenantConfig,
    MultiTenantEngine, ServeEngine, SimDisk, SimDiskConfig, StreamConfig, WalRecord, WalSink,
    WriteAheadLog,
};
use rcacopilot_simcloud::noise::NoiseProfile;
use rcacopilot_simcloud::{
    generate_dataset, partition_tenants, CampaignConfig, Incident, StorageFaultPlan,
    TenantStormPlan, Topology,
};
use rcacopilot_telemetry::ids::TenantId;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One fault-mix sweep's tallies.
#[derive(Debug, Default)]
struct MixStats {
    points: usize,
    acked_lost: u64,
    quarantined: u64,
    dropped_records: u64,
    resumes: usize,
    replay_divergences: u64,
    enospc_events: u64,
    paused_spans: u64,
    fsync_failures: u64,
    sink_retries: u64,
    recovery_us: Vec<u128>,
}

impl MixStats {
    fn percentile(&self, p: f64) -> u128 {
        if self.recovery_us.is_empty() {
            return 0;
        }
        let mut v = self.recovery_us.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        v[idx]
    }

    fn to_json(&self, geometry: &str, mix: &str) -> Value {
        json!({
            "geometry": geometry,
            "mix": mix,
            "points": self.points,
            "acked_lost": self.acked_lost,
            "quarantined": self.quarantined,
            "dropped_records": self.dropped_records,
            "resumes": self.resumes,
            "replay_divergences": self.replay_divergences,
            "enospc_events": self.enospc_events,
            "durability_paused_spans": self.paused_spans,
            "fsync_failures": self.fsync_failures,
            "sink_retries": self.sink_retries,
            "recovery_us": {
                "p50": self.percentile(0.50) as u64,
                "p99": self.percentile(0.99) as u64,
            },
        })
    }
}

fn fixture(smoke: bool) -> (RcaCopilot, Vec<Incident>) {
    let dataset = generate_dataset(&CampaignConfig {
        seed: 47,
        topology: Topology::new(2, 4, 2, 2),
        noise: NoiseProfile::default(),
    });
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let copilot = RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        RcaCopilotConfig {
            embedding: FastTextConfig {
                dim: 16,
                epochs: 4,
                lr: 0.4,
                features: FeatureExtractor {
                    buckets: 1 << 10,
                    ..FeatureExtractor::default()
                },
                ..FastTextConfig::default()
            },
            ..RcaCopilotConfig::default()
        },
    );
    let take = if smoke { 8 } else { 14 };
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(take)
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    (copilot, test)
}

fn stream() -> StreamConfig {
    StreamConfig {
        seed: 9,
        arrivals: ArrivalModel::Poisson { mean_gap_secs: 600 },
        reraise_prob: 0.1,
    }
}

fn config(workers: usize, shards: usize) -> EngineConfig {
    EngineConfig {
        workers,
        shards,
        index_mode: IndexMode::Online,
        admission: AdmissionConfig::unbounded(),
        ..EngineConfig::default()
    }
}

/// Full page-cache view of a disk's media.
fn media(disk: &SimDisk) -> Vec<u8> {
    disk.crash_image(CrashPoint {
        barriers: usize::MAX,
        tail_bytes: 0,
        nonce: 0,
    })
    .bytes
}

/// Timed load + recover of a single-tenant crash image; feeds the
/// latency histogram and returns the loaded journal.
fn timed_recover(bytes: &[u8], stats: &mut MixStats) -> WriteAheadLog {
    let t0 = Instant::now();
    let wal = WriteAheadLog::load_bytes(bytes);
    let recovery = wal.recover();
    stats.recovery_us.push(t0.elapsed().as_micros());
    assert!(
        recovery.is_ok(),
        "recovery must never fail on a crash image"
    );
    stats.quarantined += wal.quarantined().len() as u64;
    stats.dropped_records += wal.dropped_records();
    wal
}

/// Timed load + per-tenant recovery of a multi-tenant crash image.
/// (`recover()` is strictly single-tenant — interleaved journals go
/// through `recover_tenants`.)
fn timed_recover_tenants(
    bytes: &[u8],
    stats: &mut MixStats,
) -> (WriteAheadLog, BTreeMap<TenantId, usize>) {
    let t0 = Instant::now();
    let wal = WriteAheadLog::load_bytes(bytes);
    let marks = wal.recover_tenants();
    stats.recovery_us.push(t0.elapsed().as_micros());
    let marks = marks.expect("per-tenant recovery must never fail on a crash image");
    stats.quarantined += wal.quarantined().len() as u64;
    stats.dropped_records += wal.dropped_records();
    let marks = marks.into_iter().map(|(t, r)| (t, r.committed())).collect();
    (wal, marks)
}

/// Resumes the engine from a crash image and checks byte-identity.
#[allow(clippy::too_many_arguments)]
fn check_resume(
    copilot: &RcaCopilot,
    workers: usize,
    shards: usize,
    incidents: &[Incident],
    bytes: &[u8],
    baseline: &str,
    stats: &mut MixStats,
) {
    let disk = SimDisk::restore(SimDiskConfig::default(), bytes);
    let mut wal = WriteAheadLog::with_sink(Box::new(disk)).expect("restored disk");
    let out = ServeEngine::new(copilot.clone(), config(workers, shards))
        .run_with_wal(incidents, &stream(), &mut wal)
        .expect("recovered journal");
    stats.resumes += 1;
    if out.log != baseline {
        stats.replay_divergences += 1;
    }
}

/// Crash-point sweep over one single-tenant geometry and one disk fault
/// plan: every barrier × sampled tail offsets. `crash_only` mixes (no
/// bit rot) additionally assert zero acked-commit loss.
#[allow(clippy::too_many_arguments)]
fn sweep_crashes(
    copilot: &RcaCopilot,
    workers: usize,
    shards: usize,
    incidents: &[Incident],
    plan: &StorageFaultPlan,
    baseline: &str,
    crash_only: bool,
    resume_every: usize,
    nonces: u64,
) -> MixStats {
    let mut stats = MixStats::default();
    let disk = SimDisk::new(SimDiskConfig::from_plan(plan));
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let out = ServeEngine::new(copilot.clone(), config(workers, shards))
        .run_with_wal(incidents, &stream(), &mut wal)
        .expect("fresh journal");
    assert_eq!(out.log, baseline, "journaled run must match the baseline");

    let windows = disk.barrier_windows();
    for (k, &window) in windows.iter().enumerate() {
        let mut tails = vec![0usize, 1, window / 2, window];
        tails.dedup();
        for tail in tails {
            for nonce in 0..nonces {
                let point = CrashPoint {
                    barriers: k,
                    tail_bytes: tail,
                    nonce: (k as u64) * 131 + nonce,
                };
                let image = disk.crash_image(point);
                let recovered = timed_recover(&image.bytes, &mut stats);
                if crash_only {
                    // What fsync acknowledged: the media at the barrier,
                    // sans torn tail, sans fault draws past it.
                    let acked = WriteAheadLog::load_bytes(
                        &disk
                            .crash_image(CrashPoint {
                                barriers: k,
                                tail_bytes: 0,
                                nonce: point.nonce,
                            })
                            .bytes,
                    )
                    .recover()
                    .expect("acked prefix is clean");
                    let got = recovered.recover().expect("crash image recovers");
                    if got.committed() < acked.committed()
                        || got.records[..acked.committed()] != acked.records[..]
                    {
                        stats.acked_lost +=
                            (acked.committed().saturating_sub(got.committed())).max(1) as u64;
                    }
                }
                stats.points += 1;
                if stats.points % resume_every == 0 {
                    check_resume(
                        copilot,
                        workers,
                        shards,
                        incidents,
                        &image.bytes,
                        baseline,
                        &mut stats,
                    );
                }
            }
        }
    }
    stats
}

/// Bit-rot sweep: lay the finished journal on a rotting disk and draw
/// flip patterns across nonces. Acked loss is not asserted — a flip can
/// legitimately destroy an acked record; the invariant is *detection*
/// (quarantine or torn tail, never silence) and replay convergence.
#[allow(clippy::too_many_arguments)]
fn sweep_bit_rot(
    copilot: &RcaCopilot,
    workers: usize,
    shards: usize,
    incidents: &[Incident],
    clean_bytes: &[u8],
    baseline: &str,
    nonces: u64,
    resume_every: usize,
) -> MixStats {
    let mut stats = MixStats::default();
    let rot = SimDisk::restore(
        SimDiskConfig::from_plan(&StorageFaultPlan::bit_rot(29)),
        clean_bytes,
    );
    for nonce in 0..nonces {
        let image = rot.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 0,
            nonce,
        });
        let recovered = timed_recover(&image.bytes, &mut stats);
        // Detection: every image with flips must show damage somewhere
        // in the ledger (quarantine, prune, or torn tail).
        if !image.flipped.is_empty() {
            assert!(
                !recovered.quarantined().is_empty()
                    || recovered.dropped_records() > 0
                    || recovered.had_torn_tail(),
                "silent corruption: flips {:?} left no trace",
                image.flipped
            );
        }
        stats.points += 1;
        if stats.points % resume_every == 0 {
            check_resume(
                copilot,
                workers,
                shards,
                incidents,
                &image.bytes,
                baseline,
                &mut stats,
            );
        }
    }
    stats
}

/// Engine-level degraded-media runs: `ENOSPC` budget and flaky I/O.
/// The run itself must complete with the baseline log; counters must
/// show the degradation honestly.
fn run_degraded(
    copilot: &RcaCopilot,
    workers: usize,
    shards: usize,
    incidents: &[Incident],
    disk_cfg: SimDiskConfig,
    checkpoint_every: usize,
    baseline: &str,
) -> MixStats {
    let mut stats = MixStats::default();
    let disk = SimDisk::new(disk_cfg);
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let mut cfg = config(workers, shards);
    cfg.checkpoint_every = checkpoint_every;
    let out = ServeEngine::new(copilot.clone(), cfg)
        .run_with_wal(incidents, &stream(), &mut wal)
        .expect("degraded media must never be fatal");
    stats.points += 1;
    stats.resumes += 1;
    if out.log != baseline {
        stats.replay_divergences += 1;
    }
    stats.enospc_events = wal.enospc_events();
    stats.paused_spans = wal.durability_paused_spans();
    stats.fsync_failures = wal.fsync_failures();
    stats.sink_retries = wal.sink_retries();
    // Whatever landed on media must still be a consistent journal.
    let mut handle = disk.clone();
    let bytes = handle.contents().expect("media");
    timed_recover(&bytes, &mut stats);
    stats.points += 1;
    stats
}

/// Multi-tenant geometry: fuzz the adopted merged journal with suffix
/// truncations and bit flips; damage to one tenant's records must never
/// move another tenant's watermark, and the plane must resume to the
/// identical merged log.
fn sweep_multitenant(copilot: &RcaCopilot, incidents: &[Incident], smoke: bool) -> Vec<Value> {
    let plans = [
        TenantStormPlan::quiet(TenantId(1), 91),
        TenantStormPlan::quiet(TenantId(2), 92),
    ];
    let parts = partition_tenants(incidents, &plans);
    let config = MultiTenantConfig {
        base: EngineConfig {
            workers: 2,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
        ..MultiTenantConfig::default()
    };
    let plane =
        MultiTenantEngine::from_plans(copilot.clone(), config, &plans).expect("well-formed plans");
    let disk = SimDisk::new(SimDiskConfig::default());
    let mut wal = WriteAheadLog::with_sink(Box::new(disk.clone())).expect("fresh disk");
    let out = plane.run_with_wal(&parts, &mut wal).expect("clean journal");
    let clean = media(&disk);
    let text = String::from_utf8(clean.clone()).expect("clean journal is utf8");
    let parsed = WriteAheadLog::load(&text);
    let records = parsed.records().expect("clean journal parses");
    let lines: Vec<&str> = text.lines().collect();
    // Per-line byte extents and owners, and clean per-tenant watermarks.
    let mut line_end = Vec::with_capacity(lines.len());
    let mut acc = 0usize;
    for l in &lines {
        line_end.push(acc + l.len());
        acc += l.len() + 1;
    }
    let owners: Vec<TenantId> = records.iter().map(WalRecord::tenant).collect();
    let clean_marks: BTreeMap<TenantId, usize> = parsed
        .recover_tenants()
        .expect("clean journal")
        .into_iter()
        .map(|(t, r)| (t, r.committed()))
        .collect();

    // --- truncation sweep: crash during the adoption rewrite ---
    let mut trunc = MixStats::default();
    let step = if smoke { 97 } else { 23 };
    let mut cut = 0usize;
    while cut <= clean.len() {
        let image = &clean[..cut];
        let (_recovered, marks) = timed_recover_tenants(image, &mut trunc);
        // Each tenant's watermark must equal exactly its commits among
        // the lines fully inside the cut — nothing lost, nothing phantom.
        let mut expected: BTreeMap<TenantId, usize> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            if line_end[i] <= cut {
                if let WalRecord::Commit { .. } = r {
                    *expected.entry(owners[i]).or_insert(0) += 1;
                }
            }
        }
        for (tenant, &want) in &expected {
            let got = marks.get(tenant).copied().unwrap_or(0);
            if got != want {
                trunc.acked_lost += want.abs_diff(got) as u64;
            }
        }
        trunc.points += 1;
        if trunc.points % (if smoke { 2 } else { 8 }) == 0 {
            let rdisk = SimDisk::restore(SimDiskConfig::default(), image);
            let mut rwal = WriteAheadLog::with_sink(Box::new(rdisk)).expect("restored");
            let resumed = plane.run_with_wal(&parts, &mut rwal).expect("recoverable");
            trunc.resumes += 1;
            if resumed.log != out.log {
                trunc.replay_divergences += 1;
            }
        }
        cut += step.max(1);
    }

    // --- bit-flip sweep: rot on the adopted journal ---
    let mut rotst = MixStats::default();
    let rot = SimDisk::restore(
        SimDiskConfig::from_plan(&StorageFaultPlan::bit_rot(93)),
        &clean,
    );
    let nonces = if smoke { 12 } else { 64 };
    for nonce in 0..nonces {
        let image = rot.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 0,
            nonce,
        });
        let (_recovered, marks) = timed_recover_tenants(&image.bytes, &mut rotst);
        // Tenants owning none of the flipped bytes keep their watermark.
        let mut hit: BTreeMap<TenantId, bool> = BTreeMap::new();
        for &off in &image.flipped {
            // A flipped newline fuses line i and i+1: both owners hurt.
            let li = line_end.iter().position(|&e| off < e + 1).unwrap_or(0);
            hit.insert(owners[li], true);
            if off == line_end[li] && li + 1 < owners.len() {
                hit.insert(owners[li + 1], true);
            }
        }
        for (tenant, &want) in &clean_marks {
            if hit.contains_key(tenant) {
                continue;
            }
            let got = marks.get(tenant).copied().unwrap_or(0);
            if got != want {
                rotst.acked_lost += want.abs_diff(got) as u64;
            }
        }
        rotst.points += 1;
        if rotst.points % (if smoke { 5 } else { 12 }) == 0 {
            let rdisk = SimDisk::restore(SimDiskConfig::default(), &image.bytes);
            let mut rwal = WriteAheadLog::with_sink(Box::new(rdisk)).expect("restored");
            let resumed = plane.run_with_wal(&parts, &mut rwal).expect("recoverable");
            rotst.resumes += 1;
            if resumed.log != out.log {
                rotst.replay_divergences += 1;
            }
        }
    }

    vec![
        trunc.to_json("2w×1s×2t", "adopt_truncation"),
        rotst.to_json("2w×1s×2t", "adopt_bit_rot"),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "WAL torture fuzzer: crash points × fault mixes (smoke)"
    } else {
        "WAL torture fuzzer: crash points × fault mixes"
    });
    let (copilot, test) = fixture(smoke);
    println!("incidents streamed per run: {}", test.len());

    let geometries: &[(usize, usize)] = &[(1, 1), (4, 2)];
    let nonces = if smoke { 1 } else { 2 };
    let resume_every = if smoke { 16 } else { 12 };
    let mut rows: Vec<Value> = Vec::new();

    for &(workers, shards) in geometries {
        let geometry = format!("{workers}w×{shards}s");
        let baseline = ServeEngine::new(copilot.clone(), config(workers, shards))
            .run(&test, &stream())
            .log;

        // Clean crashes: pure barrier/tear semantics, zero-loss asserted.
        let clean = sweep_crashes(
            &copilot,
            workers,
            shards,
            &test,
            &StorageFaultPlan::clean(17),
            &baseline,
            true,
            resume_every,
            nonces,
        );
        // Torn pages: un-fsynced pages zero out at crash. Still
        // crash-only (the durable prefix is untouched), so still
        // zero-loss.
        let torn = sweep_crashes(
            &copilot,
            workers,
            shards,
            &test,
            &StorageFaultPlan::torn_pages(19),
            &baseline,
            true,
            resume_every,
            nonces,
        );
        // Bit rot over the finished journal.
        let clean_disk = SimDisk::new(SimDiskConfig::from_plan(&StorageFaultPlan::clean(17)));
        let mut wal = WriteAheadLog::with_sink(Box::new(clean_disk.clone())).expect("fresh");
        ServeEngine::new(copilot.clone(), config(workers, shards))
            .run_with_wal(&test, &stream(), &mut wal)
            .expect("fresh journal");
        let rot = sweep_bit_rot(
            &copilot,
            workers,
            shards,
            &test,
            &media(&clean_disk),
            &baseline,
            if smoke { 16 } else { 72 },
            if smoke { 6 } else { 12 },
        );
        // ENOSPC: budget a third of the clean journal, fold to survive.
        let budget = (media(&clean_disk).len() / 3).max(512);
        let enospc = run_degraded(
            &copilot,
            workers,
            shards,
            &test,
            SimDiskConfig::from_plan(&StorageFaultPlan::tight_budget(31, budget as u64)),
            4,
            &baseline,
        );
        // Flaky I/O: hot per-mille write/fsync error dice.
        let mut flaky_cfg = SimDiskConfig::from_plan(&StorageFaultPlan::flaky(37));
        flaky_cfg.write_error_per_mille = 120;
        flaky_cfg.fsync_error_per_mille = 120;
        let flaky = run_degraded(&copilot, workers, shards, &test, flaky_cfg, 0, &baseline);

        for (mix, stats) in [
            ("clean_crash", &clean),
            ("torn_pages", &torn),
            ("bit_rot", &rot),
            ("enospc_budget", &enospc),
            ("flaky_io", &flaky),
        ] {
            println!(
                "{geometry:>7} {mix:<16} points={:<5} acked_lost={} quarantined={:<4} \
                 resumes={:<3} divergences={} recovery_p50={}us p99={}us",
                stats.points,
                stats.acked_lost,
                stats.quarantined,
                stats.resumes,
                stats.replay_divergences,
                stats.percentile(0.5),
                stats.percentile(0.99),
            );
            rows.push(stats.to_json(&geometry, mix));
        }
    }

    let tenant_rows = sweep_multitenant(&copilot, &test, smoke);
    for row in &tenant_rows {
        println!(
            "{:>8} {:<16} points={:<5} acked_lost={} quarantined={:<4} resumes={:<3} divergences={}",
            "2w×1s×2t",
            match field(row, "mix") {
                Value::Str(s) => s.clone(),
                other => panic!("mix is a string, got {other:?}"),
            },
            field_u64(row, "points"),
            field_u64(row, "acked_lost"),
            field_u64(row, "quarantined"),
            field_u64(row, "resumes"),
            field_u64(row, "replay_divergences"),
        );
    }
    rows.extend(tenant_rows);

    // Harness-level gates: the fuzzer is an assertion, not a report.
    let total_points: u64 = rows.iter().map(|r| field_u64(r, "points")).sum();
    let total_lost: u64 = rows.iter().map(|r| field_u64(r, "acked_lost")).sum();
    let total_div: u64 = rows
        .iter()
        .map(|r| field_u64(r, "replay_divergences"))
        .sum();
    let total_resumes: u64 = rows.iter().map(|r| field_u64(r, "resumes")).sum();
    let floor = if smoke { 60 } else { 400 };
    assert!(
        total_points >= floor,
        "sweep too small: {total_points} < {floor}"
    );
    assert_eq!(total_lost, 0, "fsync-acknowledged commits were lost");
    assert_eq!(total_div, 0, "a resumed run diverged from its baseline");
    assert!(total_resumes > 0);
    println!(
        "\nTOTAL points={total_points} acked_lost={total_lost} \
         replay_divergences={total_div} resumes={total_resumes}"
    );

    write_root_results(
        "BENCH_wal_torture",
        &json!({
            "mode": if smoke { "smoke" } else { "full" },
            "incidents_per_run": test.len(),
            "rows": Value::Seq(rows),
            "totals": {
                "points": total_points,
                "acked_lost": total_lost,
                "replay_divergences": total_div,
                "resumes": total_resumes,
            },
        }),
        smoke,
    );
}

/// Looks up a field of a row produced by [`MixStats::to_json`].
fn field<'a>(row: &'a Value, key: &str) -> &'a Value {
    row.as_map()
        .expect("row is a map")
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("row field {key} missing"))
}

/// Reads an unsigned field off a row produced by [`MixStats::to_json`].
fn field_u64(row: &Value, key: &str) -> u64 {
    match field(row, key) {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("row field {key} is not a number: {other:?}"),
    }
}
