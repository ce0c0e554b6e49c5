//! Per-tenant workload plans for the multi-tenant serving benchmarks.
//!
//! The paper's deployment serves 30+ OCE teams over one shared pipeline
//! (Table 4); [`teams`](crate::teams) simulates their collection-side
//! profiles. This module models the *serving-side* view of a team: a
//! [`TenantStormPlan`] is pure data describing one tenant's alert-stream
//! shape (arrival process, monitor flapping) and worker-fault climate
//! (per-mille panic/stall/error rates), plus its fair-share weight. The
//! serving crate turns a plan into its own stream and fault configs; this
//! crate stays dependency-free of the engine and only knows how to
//! describe and partition workloads.
//!
//! Determinism contract: a plan carries every seed it needs, so the same
//! plan over the same incident slice always yields the same tenant
//! workload — the precondition for the noisy-neighbor isolation proofs.

use crate::incident::Incident;
use rcacopilot_telemetry::ids::TenantId;

/// One tenant's workload description: stream shape, fault climate, and
/// fair-share weight. Pure data — no behavior beyond constructors — so
/// the serving plane can translate it into its own config types without
/// a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStormPlan {
    /// The tenant this plan describes.
    pub tenant: TenantId,
    /// Fair-share weight (relative admission capacity). Must be
    /// positive.
    pub weight: u32,
    /// Seed of the tenant's arrival process.
    pub stream_seed: u64,
    /// Mean background gap between arrivals, virtual seconds.
    pub mean_gap_secs: u64,
    /// Probability that an arrival opens an alert storm.
    pub burst_prob: f64,
    /// Events per storm (including the opener).
    pub burst_len: usize,
    /// Gap between storm events, virtual seconds.
    pub burst_gap_secs: u64,
    /// Monitor flap probability (duplicate re-raises).
    pub reraise_prob: f64,
    /// Seed of the tenant's worker-fault plan.
    pub fault_seed: u64,
    /// Per-mille worker-panic rate for this tenant's events.
    pub panic_per_mille: u16,
    /// Per-mille stall rate.
    pub stall_per_mille: u16,
    /// Per-mille transient-error rate.
    pub error_per_mille: u16,
}

impl TenantStormPlan {
    /// A well-behaved tenant: calm Poisson-ish arrivals, no storms, no
    /// injected worker faults.
    pub fn quiet(tenant: TenantId, seed: u64) -> Self {
        TenantStormPlan {
            tenant,
            weight: 1,
            stream_seed: seed,
            mean_gap_secs: 1_800,
            burst_prob: 0.0,
            burst_len: 1,
            burst_gap_secs: 1,
            reraise_prob: 0.05,
            fault_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            panic_per_mille: 0,
            stall_per_mille: 0,
            error_per_mille: 0,
        }
    }

    /// The noisy neighbor: a flapping monitor storm (dense bursts, heavy
    /// re-raises) whose events also hit a ~30% worker-fault rate — the
    /// poison-pill climate that the bulkheads must contain.
    pub fn flapping_storm(tenant: TenantId, seed: u64) -> Self {
        TenantStormPlan {
            tenant,
            weight: 1,
            stream_seed: seed,
            mean_gap_secs: 120,
            burst_prob: 0.6,
            burst_len: 8,
            burst_gap_secs: 2,
            reraise_prob: 0.5,
            fault_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            panic_per_mille: 120,
            stall_per_mille: 100,
            error_per_mille: 80,
        }
    }

    /// Total injected fault probability per attempt, per mille.
    pub fn total_fault_per_mille(&self) -> u16 {
        (u32::from(self.panic_per_mille)
            + u32::from(self.stall_per_mille)
            + u32::from(self.error_per_mille))
        .min(1000) as u16
    }
}

/// Parameters of a heavy-tailed tenant fleet — the many-stream workload
/// of the tenant-sharded runtime (rcabench's `tenant_fleet`, the
/// `serve_multitenant` example). Tenant weights and event volumes both
/// follow a Zipf law over rank (`score(r) ∝ 1/(r+1)^s`,
/// rank 0 the heaviest), which is how per-team alert volume is
/// distributed in the paper's deployment: a few teams generate most of
/// the traffic, a long tail barely any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantFleetConfig {
    /// Fleet size (tenant count). Must be positive.
    pub tenants: usize,
    /// Base seed; per-tenant stream/fault seeds derive from it.
    pub seed: u64,
    /// Zipf exponent `s` (1.0 = classic; larger = heavier head).
    pub zipf_exponent: f64,
    /// Total event volume distributed over the fleet.
    pub total_events: usize,
    /// Cap on any single tenant's share of `total_events` (e.g. 1/16).
    /// Keeps the head tenant from holding most of the fleet's events,
    /// and so most of one shard's work.
    pub max_share: f64,
    /// Fraction of tenants (drawn deterministically from `seed`) that
    /// run the [`TenantStormPlan::flapping_storm`] climate.
    pub storm_fraction: f64,
    /// Weight of the rank-0 tenant; weights decay with the Zipf score
    /// down to a floor of 1.
    pub max_weight: u32,
}

impl Default for TenantFleetConfig {
    fn default() -> Self {
        TenantFleetConfig {
            tenants: 1024,
            seed: 7,
            zipf_exponent: 1.1,
            total_events: 1_000_000,
            max_share: 1.0 / 16.0,
            storm_fraction: 0.05,
            max_weight: 32,
        }
    }
}

/// SplitMix64 finalizer — the deterministic per-tenant draw.
fn mix(seed: u64, rank: u64) -> u64 {
    let mut z = seed ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the fleet's storm plans, rank order (heaviest first). Tenant
/// ids are `TenantId(rank + 1)`; weights follow the Zipf score scaled to
/// [`TenantFleetConfig::max_weight`]; a seeded
/// [`TenantFleetConfig::storm_fraction`] of tenants get the
/// flapping-storm climate, the rest stay quiet.
pub fn zipf_fleet(config: &TenantFleetConfig) -> Vec<TenantStormPlan> {
    assert!(config.tenants > 0, "need at least one tenant");
    (0..config.tenants)
        .map(|rank| {
            let tenant = TenantId(rank as u64 + 1);
            let seed = mix(config.seed, rank as u64);
            let storm_roll = mix(config.seed ^ 0x5bd1_e995, rank as u64) % 1000;
            let mut plan = if (storm_roll as f64) < config.storm_fraction * 1000.0 {
                TenantStormPlan::flapping_storm(tenant, seed)
            } else {
                TenantStormPlan::quiet(tenant, seed)
            };
            let score = 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent);
            plan.weight = ((config.max_weight as f64 * score).round() as u32).max(1);
            plan
        })
        .collect()
}

/// Distributes [`TenantFleetConfig::total_events`] over the fleet by the
/// same Zipf law, clamping every tenant to
/// [`TenantFleetConfig::max_share`] of the total and renormalizing over
/// the tail. Every tenant gets at least one event; the remainder after
/// rounding lands on the head ranks, so the volumes sum to exactly
/// `total_events` (when `total_events ≥ tenants`).
pub fn zipf_volumes(config: &TenantFleetConfig) -> Vec<usize> {
    assert!(config.tenants > 0, "need at least one tenant");
    let n = config.tenants;
    let scores: Vec<f64> = (0..n)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent))
        .collect();
    let total_score: f64 = scores.iter().sum();
    let cap = config.max_share.clamp(1.0 / n as f64, 1.0);
    // Clamp shares at the cap; surplus re-spreads over unclamped ranks
    // proportionally (one pass is enough for monotone scores).
    let raw: Vec<f64> = scores.iter().map(|s| s / total_score).collect();
    let clamped_surplus: f64 = raw.iter().filter(|&&s| s > cap).map(|s| s - cap).sum();
    let unclamped_score: f64 = raw.iter().filter(|&&s| s <= cap).sum();
    let shares: Vec<f64> = raw
        .iter()
        .map(|&s| {
            if s > cap {
                cap
            } else if unclamped_score > 0.0 {
                (s + clamped_surplus * s / unclamped_score).min(cap)
            } else {
                cap
            }
        })
        .collect();
    let mut volumes: Vec<usize> = shares
        .iter()
        .map(|share| ((config.total_events as f64 * share) as usize).max(1))
        .collect();
    // Settle rounding drift on the head ranks, never below 1.
    let mut diff = config.total_events as i64 - volumes.iter().sum::<usize>() as i64;
    let mut rank = 0usize;
    while diff != 0 && config.total_events >= n {
        if diff > 0 {
            volumes[rank] += 1;
            diff -= 1;
        } else if volumes[rank] > 1 {
            volumes[rank] -= 1;
            diff += 1;
        }
        rank = (rank + 1) % n;
    }
    volumes
}

/// Materializes per-tenant incident slices by cycling `base` to each
/// tenant's volume, re-tagging ownership. Tenant `r` starts its cycle at
/// a rank-dependent offset so neighboring tenants don't replay the base
/// set in lockstep. Aligned with `plans`; panics if `base` is empty or
/// the slices disagree in length.
pub fn replicate_partition(
    base: &[Incident],
    plans: &[TenantStormPlan],
    volumes: &[usize],
) -> Vec<Vec<Incident>> {
    assert!(!base.is_empty(), "need at least one base incident");
    assert_eq!(plans.len(), volumes.len(), "one volume per plan");
    plans
        .iter()
        .zip(volumes)
        .enumerate()
        .map(|(rank, (plan, &volume))| {
            (0..volume)
                .map(|i| {
                    let mut owned = base[(rank * 17 + i) % base.len()].clone();
                    owned.alert.tenant = plan.tenant;
                    owned
                })
                .collect()
        })
        .collect()
}

/// Deals `incidents` round-robin across the tenant plans, re-tagging each
/// alert with its owner. Returns one incident slice per plan, aligned
/// with `plans` — the deterministic partition both the merged run and the
/// per-tenant solo baselines are built from.
pub fn partition_tenants(incidents: &[Incident], plans: &[TenantStormPlan]) -> Vec<Vec<Incident>> {
    assert!(!plans.is_empty(), "need at least one tenant plan");
    let mut parts: Vec<Vec<Incident>> = plans.iter().map(|_| Vec::new()).collect();
    for (i, incident) in incidents.iter().enumerate() {
        let slot = i % plans.len();
        let mut owned = incident.clone();
        owned.alert.tenant = plans[slot].tenant;
        parts[slot].push(owned);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_dataset, CampaignConfig};
    use crate::noise::NoiseProfile;
    use crate::topology::Topology;

    fn small_dataset() -> Vec<Incident> {
        generate_dataset(&CampaignConfig {
            seed: 5,
            topology: Topology::new(2, 3, 2, 2),
            noise: NoiseProfile {
                routine_logs: 1,
                herring_logs: 0,
                healthy_traces: 0,
                unrelated_failure: false,
                bystander_anomalies: 0,
            },
        })
        .incidents()
        .iter()
        .take(20)
        .cloned()
        .collect()
    }

    #[test]
    fn partition_deals_round_robin_and_tags_owners() {
        let incidents = small_dataset();
        let plans = [
            TenantStormPlan::quiet(TenantId(1), 10),
            TenantStormPlan::quiet(TenantId(2), 11),
            TenantStormPlan::flapping_storm(TenantId(3), 12),
        ];
        let parts = partition_tenants(&incidents, &plans);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), incidents.len());
        for (part, plan) in parts.iter().zip(&plans) {
            assert!(part.iter().all(|inc| inc.alert.tenant == plan.tenant));
        }
        // Round-robin: sizes differ by at most one and order is stable.
        let max = parts.iter().map(Vec::len).max().unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1);
        assert_eq!(parts[0][0].alert.incident, incidents[0].alert.incident);
        assert_eq!(parts[1][0].alert.incident, incidents[1].alert.incident);
    }

    #[test]
    fn partition_is_deterministic() {
        let incidents = small_dataset();
        let plans = [
            TenantStormPlan::quiet(TenantId(1), 10),
            TenantStormPlan::flapping_storm(TenantId(2), 11),
        ];
        let key = |parts: &[Vec<Incident>]| -> Vec<Vec<_>> {
            parts
                .iter()
                .map(|p| {
                    p.iter()
                        .map(|i| (i.alert.incident, i.alert.tenant))
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            key(&partition_tenants(&incidents, &plans)),
            key(&partition_tenants(&incidents, &plans))
        );
    }

    #[test]
    fn storm_plan_is_noisier_than_quiet() {
        let quiet = TenantStormPlan::quiet(TenantId(1), 1);
        let storm = TenantStormPlan::flapping_storm(TenantId(2), 1);
        assert_eq!(quiet.total_fault_per_mille(), 0);
        assert_eq!(storm.total_fault_per_mille(), 300);
        assert!(storm.burst_prob > quiet.burst_prob);
        assert!(storm.mean_gap_secs < quiet.mean_gap_secs);
    }

    #[test]
    #[should_panic(expected = "at least one tenant plan")]
    fn empty_plan_list_is_rejected() {
        let _ = partition_tenants(&[], &[]);
    }

    #[test]
    fn zipf_fleet_is_heavy_tailed_and_deterministic() {
        let config = TenantFleetConfig {
            tenants: 256,
            total_events: 10_000,
            ..TenantFleetConfig::default()
        };
        let fleet = zipf_fleet(&config);
        assert_eq!(fleet.len(), 256);
        assert_eq!(fleet[0].tenant, TenantId(1));
        assert_eq!(fleet[0].weight, config.max_weight);
        assert!(fleet.windows(2).all(|w| w[0].weight >= w[1].weight));
        assert_eq!(fleet.last().unwrap().weight, 1, "tail hits the floor");
        let storms = fleet
            .iter()
            .filter(|p| p.total_fault_per_mille() > 0)
            .count();
        assert!(
            storms > 0 && storms < 40,
            "~5% of 256 tenants storm, got {storms}"
        );
        assert_eq!(fleet, zipf_fleet(&config), "same config, same fleet");
        // Distinct stream seeds: tenants must not replay each other.
        let mut seeds: Vec<u64> = fleet.iter().map(|p| p.stream_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 256);
    }

    #[test]
    fn zipf_volumes_sum_exactly_and_respect_the_share_cap() {
        let config = TenantFleetConfig {
            tenants: 512,
            total_events: 100_000,
            max_share: 1.0 / 16.0,
            ..TenantFleetConfig::default()
        };
        let volumes = zipf_volumes(&config);
        assert_eq!(volumes.len(), 512);
        assert_eq!(volumes.iter().sum::<usize>(), 100_000);
        assert!(volumes.iter().all(|&v| v >= 1));
        assert!(volumes.windows(2).all(|w| w[0] >= w[1]), "rank-monotone");
        // The cap binds the head: without it rank 0 of a 1.1-exponent
        // Zipf takes ~14% of the volume.
        let head_share = volumes[0] as f64 / 100_000.0;
        assert!(
            head_share <= 1.0 / 16.0 + 0.001,
            "head share {head_share} exceeds the cap"
        );
    }

    #[test]
    fn replicate_partition_cycles_base_incidents_to_volume() {
        let base = small_dataset();
        let config = TenantFleetConfig {
            tenants: 8,
            total_events: 200,
            ..TenantFleetConfig::default()
        };
        let fleet = zipf_fleet(&config);
        let volumes = zipf_volumes(&config);
        let parts = replicate_partition(&base, &fleet, &volumes);
        assert_eq!(parts.len(), 8);
        for ((part, plan), &volume) in parts.iter().zip(&fleet).zip(&volumes) {
            assert_eq!(part.len(), volume);
            assert!(part.iter().all(|inc| inc.alert.tenant == plan.tenant));
        }
        // Neighboring tenants start their base cycle at different
        // offsets.
        assert_ne!(
            parts[0][0].alert.incident, parts[1][0].alert.incident,
            "cycles are decorrelated"
        );
    }
}
