//! Noisy-neighbor containment sweep: one flapping-storm tenant among
//! quiet tenants over one shared serving plane.
//!
//! The multi-tenant bulkheads make three claims, all checked here in
//! deterministic virtual time:
//!
//! - **Prediction isolation is exact**: every tenant's prediction log in
//!   the merged run is byte-identical to a solo run with the same
//!   derived fair-share config — the storm changes *nothing* about what
//!   other tenants are told (asserted, not measured).
//! - **Latency isolation is tight**: under deficit-round-robin sharing
//!   of the worker pool with the storm tenant bulkhead-capped, each
//!   quiet tenant's virtual p99 latency stays within 10% of its solo
//!   baseline (same pool, no competitors).
//! - **Admission isolation is exact**: a tenant's admitted/degraded/shed
//!   split depends only on its own fair-share budget, so the merged
//!   fractions equal the solo fractions exactly.
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
    simulate_drr, AdmissionConfig, BreakerConfig, DrrJob, EngineConfig, EventOutcome, IndexMode,
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

    // A pool small enough that the storm's bursts could take every worker
    // if nothing stopped them — the bulkhead cap is what keeps the quiet
    // tenants' p99 pinned to their solo baselines (the uncapped
    // counterfactual below shows the damage it prevents).
    let quiet_count = if smoke { 3 } else { 7 };
    let workers = if smoke { 3 } else { 4 };
    let mut plans: Vec<TenantStormPlan> = (0..quiet_count)
        .map(|i| TenantStormPlan::quiet(TenantId(1 + i as u64), 50 + i as u64))
        .collect();
    // The noisy neighbor: flapping monitor storm + ~30% worker-fault
    // climate, bulkhead-capped in the shared pool. Its background gap is
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

    // Rebuild the pool's job list exactly as the plane scores it, so the
    // same jobs can replay through the counterfactual pool (storm
    // bulkhead cap removed) and through per-tenant solo pools.
    let service_of = |slot: usize, r: &rcacopilot_serve::EventRecord| -> Option<u64> {
        let c = rcacopilot_serve::cost::estimate(
            &parts[slot][r.incident_idx].alert,
            config.base.cost_seed,
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
    for (slot, run) in out.tenants.iter().enumerate() {
        for r in &run.outcome.records {
            if let Some(service) = service_of(slot, r) {
                keyed.push((r.at.as_secs(), slot, service));
            }
        }
    }
    keyed.sort_unstable();
    let pool_jobs: Vec<DrrJob> = keyed
        .iter()
        .map(|&(arrival_secs, tenant_slot, service_secs)| DrrJob {
            tenant_slot,
            arrival_secs,
            service_secs,
        })
        .collect();
    let weights: Vec<u32> = plane.specs().iter().map(|s| s.weight).collect();
    let uncapped = simulate_drr(
        &pool_jobs,
        workers,
        &weights,
        config.quantum_secs,
        &vec![None; weights.len()],
    );

    println!(
        "\n{:>7} {:>7} {:>7} {:>5} {:>5} {:>5} {:>9} {:>9} {:>7} {:>10} {:>9}",
        "tenant",
        "role",
        "events",
        "pred",
        "degr",
        "shed",
        "p99(m)",
        "p99(solo)",
        "ratio",
        "p99(nocap)",
        "accuracy"
    );
    let mut rows = Vec::new();
    let mut isolation_ok = true;
    for (slot, run) in out.tenants.iter().enumerate() {
        let spec = &plane.specs()[slot];
        // Solo baseline: same derived fair-share config, same incident
        // slice, the whole pool to itself.
        let solo_cfg =
            MultiTenantEngine::tenant_engine_config(&config.base, spec, plane.total_weight(), None);
        let solo = ServeEngine::new(copilot.clone(), solo_cfg).run(&parts[slot], &spec.stream);
        assert_eq!(
            run.outcome.log, solo.log,
            "tenant {:?}: merged log must be byte-identical to solo",
            run.tenant
        );

        // Solo pool schedule: the tenant's own jobs over the same worker
        // pool with no competitors (same DRR machinery, one slot).
        let solo_jobs: Vec<DrrJob> = pool_jobs
            .iter()
            .filter(|j| j.tenant_slot == slot)
            .map(|j| DrrJob {
                tenant_slot: 0,
                ..*j
            })
            .collect();
        let solo_pool = simulate_drr(
            &solo_jobs,
            workers,
            &[spec.weight],
            config.quantum_secs,
            &[spec.in_flight_cap],
        );

        let merged_p99 = out.drr.per_tenant[slot].latencies.percentile(0.99);
        let solo_p99 = solo_pool.merged.latencies.percentile(0.99);
        let ratio = if solo_p99 == 0 {
            1.0
        } else {
            merged_p99 as f64 / solo_p99 as f64
        };
        let counts = |records: &[rcacopilot_serve::EventRecord]| {
            let pred = records
                .iter()
                .filter(|r| matches!(r.outcome, EventOutcome::Predicted { .. }))
                .count();
            let degraded = records
                .iter()
                .filter(|r| matches!(r.outcome, EventOutcome::Predicted { degraded: true, .. }))
                .count();
            let shed = records
                .iter()
                .filter(|r| matches!(r.outcome, EventOutcome::Shed { .. }))
                .count();
            (pred, degraded, shed)
        };
        let (pred, degraded, shed) = counts(&run.outcome.records);
        let (solo_pred, solo_degraded, solo_shed) = counts(&solo.records);
        assert_eq!(
            (pred, degraded, shed),
            (solo_pred, solo_degraded, solo_shed),
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
        let storm = slot == storm_slot;
        if !storm && ratio > 1.10 {
            isolation_ok = false;
        }
        let uncapped_p99 = uncapped.per_tenant[slot].latencies.percentile(0.99);
        println!(
            "{:>7} {:>7} {:>7} {:>5} {:>5} {:>5} {:>9} {:>9} {:>7.3} {:>10} {:>9.3}",
            run.tenant.0,
            if storm { "storm" } else { "quiet" },
            run.outcome.records.len(),
            pred,
            degraded,
            shed,
            merged_p99,
            solo_p99,
            ratio,
            uncapped_p99,
            accuracy,
        );
        rows.push(serde_json::json!({
            "tenant": run.tenant.0,
            "role": if storm { "storm" } else { "quiet" },
            "weight": spec.weight,
            "in_flight_cap": spec.in_flight_cap,
            "events": run.outcome.records.len(),
            "predicted": pred,
            "degraded": degraded,
            "shed": shed,
            "accuracy": accuracy,
            "p99_merged_secs": merged_p99,
            "p99_solo_secs": solo_p99,
            "p99_ratio": ratio,
            "p99_without_storm_bulkhead_secs": uncapped_p99,
            "mean_wait_merged_secs": out.drr.per_tenant[slot].waits.mean(),
            "log_identical_to_solo": true,
            "admission_split_solo_exact": true,
        }));
    }
    assert!(
        isolation_ok,
        "a quiet tenant's virtual p99 drifted more than 10% from its solo baseline"
    );
    println!("\nquiet tenants within 10% of solo p99; logs and admission solo-exact ✓");

    write_root_results(
        "BENCH_serve_tenants",
        &serde_json::json!({
            "plane": {
                "tenants": plans.len(),
                "quiet": quiet_count,
                "storm": {
                    "tenant": plans[storm_slot].tenant.0,
                    "fault_per_mille": plans[storm_slot].total_fault_per_mille(),
                    "in_flight_cap": plans[storm_slot].in_flight_cap,
                },
                "workers": workers,
                "shards": config.base.shards,
                "quantum_secs": config.quantum_secs,
                "breaker": {
                    "trip_quarantines": BreakerConfig::default().trip_quarantines,
                    "cooldown_secs": BreakerConfig::default().cooldown_secs,
                },
                "test_incidents": test.len(),
            },
            "pool": out.drr.merged.to_json(),
            "tenants": serde_json::Value::Seq(rows),
            "smoke": smoke,
        }),
        smoke,
    );
}
