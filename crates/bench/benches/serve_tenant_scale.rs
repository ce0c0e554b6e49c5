//! Tenant-sharded runtime scale sweep: a heavy-tailed (Zipf) fleet of
//! 1000+ tenants pushing ≥1M events through the shared serving plane,
//! swept over 1→8 tenant shards.
//!
//! Three claims, checked on every sweep point:
//!
//! - **Determinism is exact**: the merged transcript and every
//!   per-tenant prediction log are byte-identical at every shard count —
//!   sharding is a pure re-scheduling of the same deterministic work.
//! - **Solo parity holds at scale**: spot-checked tenants (the heaviest,
//!   a mid-fleet storm, the tail) match solo baselines byte for byte
//!   inside a 1000-tenant merged run, at every shard count.
//! - **Merged throughput is monotone 1→8 shards**: asserted on the
//!   deterministic shard-scale model ([`simulate_tenant_shards`]), which
//!   schedules the run's actual ex-ante job costs over K single-worker
//!   shards in virtual time. (Wall seconds are recorded alongside for
//!   reference; on a single-core host they measure the constant total
//!   work, not the parallel speedup the virtual model isolates.)
//!
//! Results go to `BENCH_serve_tenants_scale.json` at the repository root
//! (tracked). `--smoke` runs a reduced fleet for CI.

use rcacopilot_bench::{banner, write_root_results, SPLIT_SEED, TRAIN_FRAC};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
use rcacopilot_serve::{
    simulate_tenant_shards, AdmissionConfig, DrrJob, EngineConfig, EventOutcome, IndexMode,
    MultiTenantConfig, MultiTenantEngine, MultiTenantOutcome, ServeEngine,
};
use rcacopilot_simcloud::noise::NoiseProfile;
use rcacopilot_simcloud::{
    generate_dataset, replicate_partition, zipf_fleet, zipf_volumes, CampaignConfig, Incident,
    TenantFleetConfig, Topology,
};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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
        "Tenant-sharded runtime: smoke sweep"
    } else {
        "Tenant-sharded runtime: 1024-tenant Zipf fleet, 1M+ events"
    });

    let dataset = if smoke {
        smoke_dataset()
    } else {
        rcacopilot_bench::standard_dataset()
    };
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    let prepared = PreparedDataset::prepare(&dataset, &split);
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
    let copilot = Arc::new(RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        copilot_config,
    ));
    let take = if smoke { 24 } else { 96 };
    let base_incidents: Vec<Incident> = split
        .test
        .iter()
        .take(take)
        .map(|&i| dataset.incidents()[i].clone())
        .collect();

    // The fleet: heavy-tailed weights and volumes (Zipf s = 1.1, head
    // share capped at 1/16 so an 8-way shard split can always balance),
    // ~5% of tenants in a flapping storm. Event streams cycle the base
    // incident pool with a per-tenant offset, so within-tenant repeats
    // exercise the namespaced memo caches the way production recurrence
    // does (Fig. 2 of the paper: >50% of incidents recur).
    let fleet_cfg = TenantFleetConfig {
        tenants: if smoke { 32 } else { 1024 },
        total_events: if smoke { 2_048 } else { 1 << 20 },
        ..TenantFleetConfig::default()
    };
    let fleet = zipf_fleet(&fleet_cfg);
    let volumes = zipf_volumes(&fleet_cfg);
    let parts = replicate_partition(&base_incidents, &fleet, &volumes);
    let total_events: usize = volumes.iter().sum();
    println!(
        "fleet: {} tenants, {} events (head tenant {}, tail tenant {})",
        fleet.len(),
        total_events,
        volumes[0],
        volumes[volumes.len() - 1],
    );

    // Frozen index: the online `need` watermark is quadratic in stream
    // length and the fleet's point is raw serving throughput, not
    // incremental index freshness. Admission is unbounded so every event
    // executes and the throughput sweep counts constant work.
    let config = |shards: usize| MultiTenantConfig {
        base: EngineConfig {
            index_mode: IndexMode::Frozen,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
        shards,
        tenant_workers: Some(1),
        ..MultiTenantConfig::default()
    };

    // Solo-parity spot checks: the heaviest tenant, the first storm
    // tenant, a mid-fleet tenant, and the tail.
    let storm_slot = fleet
        .iter()
        .position(|p| p.total_fault_per_mille() > 0)
        .unwrap_or(1);
    let mut spot_slots = vec![0, storm_slot, fleet.len() / 2, fleet.len() - 1];
    spot_slots.dedup();
    let total_weight: u32 = fleet.iter().map(|p| p.weight.max(1)).sum();

    let mut baseline: Option<MultiTenantOutcome> = None;
    let mut wall_rows = Vec::new();
    for &shards in &SHARD_SWEEP {
        let plane =
            MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), config(shards), &fleet)
                .expect("generated fleet is well-formed");
        let started = Instant::now();
        let out = plane.run(&parts).expect("one slice per tenant");
        let wall_secs = started.elapsed().as_secs_f64();
        let events = out.log.lines().count();
        println!(
            "shards={shards}: {events} merged log lines, horizon {}s, wall {:.1}s \
             ({:.0} events/s)",
            out.horizon_secs,
            wall_secs,
            events as f64 / wall_secs.max(1e-9),
        );

        // Determinism across shard counts: the merged transcript and
        // every per-tenant log must match the 1-shard run byte for byte.
        if let Some(base) = &baseline {
            assert_eq!(
                out.log, base.log,
                "{shards}-shard transcript diverged from the sequential run"
            );
            for (a, b) in out.tenants.iter().zip(&base.tenants) {
                assert_eq!(
                    a.outcome.log, b.outcome.log,
                    "tenant {:?} diverged at {shards} shards",
                    a.tenant
                );
            }
        }

        // Solo parity inside the merged run, at this shard count.
        for &slot in &spot_slots {
            let spec = &plane.specs()[slot];
            let solo_cfg = MultiTenantEngine::tenant_engine_config(
                &config(shards).base,
                spec,
                total_weight,
                None,
            );
            let solo =
                ServeEngine::shared(Arc::clone(&copilot), solo_cfg).run(&parts[slot], &spec.stream);
            assert_eq!(
                out.tenants[slot].outcome.log, solo.log,
                "tenant {:?} (slot {slot}) diverged from its solo baseline at \
                 {shards} shards",
                spec.tenant
            );
        }

        wall_rows.push(json!({
            "shards": shards,
            "wall_secs": wall_secs,
            "events_per_sec": events as f64 / wall_secs.max(1e-9),
        }));
        if baseline.is_none() {
            baseline = Some(out);
        }
    }
    let baseline = baseline.expect("sweep is non-empty");
    println!(
        "parity: merged + per-tenant logs byte-identical across shards {SHARD_SWEEP:?}; \
         solo baselines matched for slots {spot_slots:?}"
    );

    // The shard-scale model: replay the run's ex-ante job costs through
    // K single-worker shards in virtual time. This is the claim the
    // sweep must certify — merged throughput is monotone 1→8 shards —
    // measured deterministically, independent of host core count.
    let service_of = |slot: usize, r: &rcacopilot_serve::EventRecord| -> Option<u64> {
        let c = rcacopilot_serve::cost::estimate(
            &parts[slot][r.incident_idx].alert,
            config(1).base.cost_seed,
        );
        match &r.outcome {
            EventOutcome::Shed { .. } => None,
            EventOutcome::Predicted { degraded: true, .. } => Some(c.degraded_total()),
            EventOutcome::Predicted { .. } => Some(c.total()),
            EventOutcome::Failed { reason } if reason.contains("circuit open") => None,
            EventOutcome::Failed { .. } => Some(c.total()),
        }
    };
    let mut keyed: Vec<(u64, usize, u64)> = Vec::new();
    for (slot, run) in baseline.tenants.iter().enumerate() {
        for r in &run.outcome.records {
            if let Some(service) = service_of(slot, r) {
                keyed.push((r.at.as_secs(), slot, service));
            }
        }
    }
    keyed.sort_unstable();
    let jobs: Vec<DrrJob> = keyed
        .iter()
        .map(|&(arrival_secs, tenant_slot, service_secs)| DrrJob {
            tenant_slot,
            arrival_secs,
            service_secs,
        })
        .collect();
    let mut virtual_rows = Vec::new();
    let mut last_throughput = 0.0f64;
    println!(
        "\n{:>7} {:>10} {:>14} {:>16}",
        "shards", "completed", "makespan_s", "events_per_hour"
    );
    for &shards in &SHARD_SWEEP {
        let stats = simulate_tenant_shards(&jobs, shards);
        let throughput = stats.throughput_per_hour();
        println!(
            "{:>7} {:>10} {:>14} {:>16.1}",
            shards, stats.completed, stats.merged_makespan_secs, throughput
        );
        assert!(
            throughput >= last_throughput,
            "merged throughput regressed {last_throughput:.1} -> {throughput:.1} \
             going to {shards} shards"
        );
        last_throughput = throughput;
        virtual_rows.push(stats.to_json());
    }

    write_root_results(
        "BENCH_serve_tenants_scale",
        &json!({
            "fleet": {
                "tenants": fleet.len(),
                "total_events": total_events,
                "zipf_exponent": fleet_cfg.zipf_exponent,
                "max_share": fleet_cfg.max_share,
                "storm_tenants": fleet
                    .iter()
                    .filter(|p| p.total_fault_per_mille() > 0)
                    .count(),
                "head_volume": volumes[0],
                "tail_volume": volumes[volumes.len() - 1],
            },
            "merged_events": baseline.log.lines().count(),
            "virtual_horizon_secs": baseline.horizon_secs,
            "parity": {
                "shard_counts": SHARD_SWEEP,
                "merged_log_identical": true,
                "per_tenant_logs_identical": true,
                "solo_spot_checked_slots": spot_slots,
            },
            "shard_scale_model": virtual_rows,
            "wall": wall_rows,
            "smoke": smoke,
        }),
        smoke,
    );
}
