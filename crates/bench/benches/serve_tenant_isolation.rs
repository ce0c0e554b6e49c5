//! Noisy-neighbor containment sweep: one flapping-storm tenant among
//! quiet tenants over one shared serving plane.
//!
//! The multi-tenant bulkheads make two claims, both asserted here on
//! the deterministic virtual clock:
//!
//! - **Prediction isolation is exact**: every tenant's prediction log in
//!   the merged run is byte-identical to a solo run with the same
//!   derived fair-share config — the storm changes *nothing* about what
//!   other tenants are told.
//! - **Admission isolation is exact**: a tenant's admitted/degraded/shed
//!   split depends only on its own fair-share budget, so the merged
//!   fractions equal the solo fractions exactly.
//!
//! Latency under a noisy neighbor is a wall-clock question; the
//! `rcabench` benchmark's `tenant_fleet` workload is where it belongs.
//!
//! Results go to `BENCH_serve_tenants.json` at the repository root
//! (tracked). `--smoke` runs a reduced matrix for CI.

use rcacopilot_bench::{
    banner, smoke_copilot_config, smoke_dataset, write_root_results, SPLIT_SEED, TRAIN_FRAC,
};
use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot_core::ContextSpec;
use rcacopilot_serve::{
    AdmissionConfig, BreakerConfig, EngineConfig, EventOutcome, EventRecord, IndexMode,
    MultiTenantConfig, MultiTenantEngine, ServeEngine,
};
use rcacopilot_simcloud::{partition_tenants, Incident, TenantStormPlan};
use rcacopilot_telemetry::ids::TenantId;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Multi-tenant bulkheads: smoke run"
    } else {
        "Multi-tenant bulkheads: 7 quiet tenants + 1 flapping storm"
    });

    let dataset = if smoke {
        smoke_dataset()
    } else {
        rcacopilot_bench::standard_dataset()
    };
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let copilot_config = if smoke {
        smoke_copilot_config()
    } else {
        RcaCopilotConfig::default()
    };
    let copilot = RcaCopilot::train(
        &prepared.train_examples(&ContextSpec::default()),
        copilot_config,
    );
    let take = if smoke { 24 } else { 96 };
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(take)
        .map(|&i| dataset.incidents()[i].clone())
        .collect();

    let quiet_count = if smoke { 3 } else { 7 };
    let workers = if smoke { 3 } else { 4 };
    let mut plans: Vec<TenantStormPlan> = (0..quiet_count)
        .map(|i| TenantStormPlan::quiet(TenantId(1 + i as u64), 50 + i as u64))
        .collect();
    // The noisy neighbor: flapping monitor storm + ~30% worker-fault
    // climate behind its own circuit breaker. Its background gap is
    // stretched so the bursts recur across the whole campaign instead of
    // burning out before the quiet tenants' later arrivals.
    let mut storm = TenantStormPlan::flapping_storm(TenantId(99), 77);
    storm.mean_gap_secs = 2_000;
    plans.push(storm);
    let storm_slot = plans.len() - 1;
    let parts = partition_tenants(&test, &plans);

    let config = MultiTenantConfig {
        base: EngineConfig {
            workers,
            shards: 2,
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
        .expect("well-formed plans");
    let out = plane.run(&parts).expect("one slice per tenant");

    println!(
        "\n{:>7} {:>7} {:>7} {:>5} {:>5} {:>5} {:>6} {:>9}",
        "tenant", "role", "events", "pred", "degr", "shed", "failed", "accuracy"
    );
    let mut rows = Vec::new();
    for (slot, run) in out.tenants.iter().enumerate() {
        let spec = &plane.specs()[slot];
        // Solo baseline: same derived fair-share config, same incident
        // slice, no neighbors.
        let solo_cfg =
            MultiTenantEngine::tenant_engine_config(&config.base, spec, plane.total_weight(), None);
        let solo = ServeEngine::new(copilot.clone(), solo_cfg).run(&parts[slot], &spec.stream);
        assert_eq!(
            run.outcome.log, solo.log,
            "tenant {:?}: merged log must be byte-identical to solo",
            run.tenant
        );

        let counts = |records: &[EventRecord]| {
            let count = |pred: &dyn Fn(&EventOutcome) -> bool| {
                records.iter().filter(|r| pred(&r.outcome)).count()
            };
            (
                count(&|o| matches!(o, EventOutcome::Predicted { .. })),
                count(&|o| matches!(o, EventOutcome::Predicted { degraded: true, .. })),
                count(&|o| matches!(o, EventOutcome::Shed { .. })),
                count(&|o| matches!(o, EventOutcome::Failed { .. })),
            )
        };
        let (pred, degraded, shed, failed) = counts(&run.outcome.records);
        assert_eq!(
            (pred, degraded, shed, failed),
            counts(&solo.records),
            "tenant {:?}: admission split must be solo-exact",
            run.tenant
        );
        // Accuracy over served predictions (identical to solo by the log
        // equality; reported for the sweep).
        let correct = run
            .outcome
            .records
            .iter()
            .filter(|r| match &r.outcome {
                EventOutcome::Predicted { prediction, .. } => {
                    prediction.label == parts[slot][r.incident_idx].category
                }
                _ => false,
            })
            .count();
        let accuracy = if pred == 0 {
            0.0
        } else {
            correct as f64 / pred as f64
        };
        let role = if slot == storm_slot { "storm" } else { "quiet" };
        println!(
            "{:>7} {:>7} {:>7} {:>5} {:>5} {:>5} {:>6} {:>9.3}",
            run.tenant.0,
            role,
            run.outcome.records.len(),
            pred,
            degraded,
            shed,
            failed,
            accuracy,
        );
        rows.push(serde_json::json!({
            "tenant": run.tenant.0,
            "role": role,
            "weight": spec.weight,
            "events": run.outcome.records.len(),
            "predicted": pred,
            "degraded": degraded,
            "shed": shed,
            "failed": failed,
            "accuracy": accuracy,
            "log_identical_to_solo": true,
            "admission_split_solo_exact": true,
        }));
    }
    println!("\nevery tenant's log and admission split are solo-exact ✓");

    write_root_results(
        "BENCH_serve_tenants",
        &serde_json::json!({
            "plane": {
                "tenants": plans.len(),
                "quiet": quiet_count,
                "storm": {
                    "tenant": plans[storm_slot].tenant.0,
                    "fault_per_mille": plans[storm_slot].total_fault_per_mille(),
                },
                "workers": workers,
                "shards": config.base.shards,
                "breaker": {
                    "trip_quarantines": BreakerConfig::default().trip_quarantines,
                    "cooldown_secs": BreakerConfig::default().cooldown_secs,
                },
                "test_incidents": test.len(),
            },
            "tenants": serde_json::Value::Seq(rows),
            "smoke": smoke,
        }),
        smoke,
    );
}
