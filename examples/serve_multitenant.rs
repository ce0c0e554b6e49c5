//! Serve several tenants over one shared plane: train the pipeline, give
//! each tenant its own alert stream and fair-share budget, then put one
//! tenant into a flapping storm with a ~30% worker-fault climate and show
//! the bulkheads containing it — the quiet tenants' prediction logs are
//! byte-identical to solo runs.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serve_multitenant
//! ```

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::ContextSpec;
use rcacopilot::serve::{
    AdmissionConfig, BreakerConfig, EngineConfig, EventOutcome, IndexMode, MultiTenantConfig,
    MultiTenantEngine, ServeEngine,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{
    generate_dataset, partition_tenants, replicate_partition, zipf_fleet, zipf_volumes,
    CampaignConfig, Incident, TenantFleetConfig, TenantStormPlan, Topology,
};
use rcacopilot::telemetry::ids::TenantId;
use std::sync::Arc;

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
    let test: Vec<Incident> = split
        .test
        .iter()
        .map(|&i| dataset.incidents()[i].clone())
        .collect();

    // 2. Describe the tenants: three well-behaved teams and one noisy
    //    neighbor whose monitors flap and whose events poison workers.
    //    The storm plan has the same fair-share weight as everyone else.
    let plans = [
        TenantStormPlan::quiet(TenantId(1), 11),
        TenantStormPlan::quiet(TenantId(2), 12),
        TenantStormPlan::quiet(TenantId(3), 13),
        TenantStormPlan::flapping_storm(TenantId(99), 14),
    ];
    let parts = partition_tenants(&test, &plans);
    println!(
        "Trained on {} incidents; {} tenants share {} test incidents.",
        copilot.history_len(),
        plans.len(),
        test.len()
    );

    // 3. Run the shared plane: per-tenant fair-share admission, tenant-
    //    namespaced caches, and a circuit breaker per tenant, each tenant
    //    on its own engine.
    let config = MultiTenantConfig {
        base: EngineConfig {
            workers: 4,
            index_mode: IndexMode::Online,
            admission: AdmissionConfig {
                capacity_secs: 28_800,
                ..AdmissionConfig::default()
            },
            breaker: Some(BreakerConfig::default()),
            ..EngineConfig::default()
        },
        ..MultiTenantConfig::default()
    };
    let plane = MultiTenantEngine::from_plans(copilot.clone(), config.clone(), &plans)
        .expect("non-empty, distinct tenant plans");
    let out = plane.run(&parts).expect("one slice per tenant");

    // 4. Per-tenant summary, with the isolation check made explicit: each
    //    tenant's slice of the merged run equals a solo run of the same
    //    derived config, storm or no storm.
    println!(
        "\n{:>7} {:>6} {:>7} {:>5} {:>5} {:>5} {:>7} {:>9} {:>6}",
        "tenant", "role", "events", "pred", "degr", "shed", "failed", "accuracy", "solo?"
    );
    for (slot, run) in out.tenants.iter().enumerate() {
        let spec = &plane.specs()[slot];
        let solo_cfg =
            MultiTenantEngine::tenant_engine_config(&config.base, spec, plane.total_weight(), None);
        let solo = ServeEngine::new(copilot.clone(), solo_cfg).run(&parts[slot], &spec.stream);
        let mut pred = 0usize;
        let mut degraded = 0usize;
        let mut shed = 0usize;
        let mut failed = 0usize;
        let mut correct = 0usize;
        for r in &run.outcome.records {
            match &r.outcome {
                EventOutcome::Shed { .. } => shed += 1,
                EventOutcome::Predicted {
                    prediction,
                    degraded: was_degraded,
                } => {
                    pred += 1;
                    if *was_degraded {
                        degraded += 1;
                    }
                    if prediction.label == parts[slot][r.incident_idx].category {
                        correct += 1;
                    }
                }
                EventOutcome::Failed { .. } => failed += 1,
            }
        }
        println!(
            "{:>7} {:>6} {:>7} {:>5} {:>5} {:>5} {:>7} {:>8.1}% {:>6}",
            run.tenant.0,
            if plans[slot].total_fault_per_mille() > 0 {
                "storm"
            } else {
                "quiet"
            },
            run.outcome.records.len(),
            pred,
            degraded,
            shed,
            failed,
            100.0 * correct as f64 / pred.max(1) as f64,
            if run.outcome.log == solo.log {
                "yes"
            } else {
                "NO"
            },
        );
        assert_eq!(
            run.outcome.log, solo.log,
            "tenant {:?} diverged from its solo baseline",
            run.tenant
        );
    }

    println!("\nFirst few lines of the merged tenant-tagged prediction log:");
    for line in out.log.lines().take(5) {
        println!("  {line}");
    }

    // 5. Scale phase: a 256-tenant heavy-tailed (Zipf) fleet over the
    //    tenant-sharded runtime. Per-tenant setup is O(1) — the trained
    //    pipeline is shared by Arc, caches are namespaced, and the WAL
    //    stream is pre-split — so thousands of streams compose without
    //    cloning the model. The sharded schedule reproduces the
    //    sequential one byte for byte.
    let fleet_cfg = TenantFleetConfig {
        tenants: 256,
        total_events: 2_048,
        ..TenantFleetConfig::default()
    };
    let fleet = zipf_fleet(&fleet_cfg);
    let volumes = zipf_volumes(&fleet_cfg);
    let fleet_parts = replicate_partition(&test, &fleet, &volumes);
    let fleet_config = |shards: usize| MultiTenantConfig {
        base: EngineConfig {
            index_mode: IndexMode::Frozen,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        },
        shards,
        tenant_workers: Some(1),
        ..MultiTenantConfig::default()
    };
    let copilot = Arc::new(copilot);
    let sequential =
        MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), fleet_config(1), &fleet)
            .expect("generated fleet is well-formed")
            .run(&fleet_parts)
            .expect("one slice per tenant");
    let sharded =
        MultiTenantEngine::from_plans_shared(Arc::clone(&copilot), fleet_config(8), &fleet)
            .expect("generated fleet is well-formed")
            .run(&fleet_parts)
            .expect("one slice per tenant");
    assert_eq!(
        sharded.log, sequential.log,
        "sharded schedule must reproduce the sequential transcript"
    );
    println!(
        "\nZipf fleet: {} tenants, {} events, horizon {}s — 8-shard run \
         byte-identical to sequential ({} merged log lines).",
        fleet.len(),
        fleet_parts.iter().map(Vec::len).sum::<usize>(),
        sharded.horizon_secs,
        sharded.log.lines().count(),
    );
}
