//! The year-long fault-injection campaign.
//!
//! Scheduling reproduces the paper's Insight 2: "most recurring incidents
//! (93.80%) tend to reappear within a brief span of 20 days". Each
//! category's occurrences are grouped into *bursts*: short exponential
//! gaps (a few days) inside a burst, long gaps between bursts. The number
//! of bursts grows with the category's occurrence count, which yields a
//! small minority of recurrence gaps above 20 days.

use crate::catalog::{Catalog, CategorySpec};
use crate::dataset::IncidentDataset;
use crate::incident::Incident;
use crate::noise::{fill_background, NoiseProfile};
use crate::signature::{plant, PlantCtx};
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcacopilot_telemetry::alert::{Alert, AlertType};
use rcacopilot_telemetry::ids::{IncidentId, MachineRole, TenantId};
use rcacopilot_telemetry::query::Scope;
use rcacopilot_telemetry::time::{SimDuration, SimTime};
use rcacopilot_telemetry::TelemetrySnapshot;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Service topology.
    pub topology: Topology,
    /// Background-noise volume.
    pub noise: NoiseProfile,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            topology: Topology::default(),
            noise: NoiseProfile::default(),
        }
    }
}

/// Monitor name raising each alert type.
fn monitor_for(alert_type: AlertType) -> &'static str {
    match alert_type {
        AlertType::DeliveryQueueBacklog => "QueueLengthMonitor",
        AlertType::OutboundConnectionFailure => "OutboundProxyMonitor",
        AlertType::ProcessCrashSpike => "CrashRateWatchdog",
        AlertType::AuthenticationFailure => "AuthHealthMonitor",
        AlertType::ConnectionLimitExceeded => "ConnectionCountMonitor",
        AlertType::AvailabilityDrop => "AvailabilitySloMonitor",
        AlertType::PoisonedMessage => "PoisonMessageMonitor",
        AlertType::DeliveryLatencyHigh => "DeliveryLatencyMonitor",
        AlertType::ResourcePressure => "ResourcePressureMonitor",
        AlertType::DependencyTimeout => "DependencyHealthMonitor",
    }
}

/// Days in the simulated year available for scheduling.
const YEAR_DAYS: f64 = 364.0;
/// Mean within-burst recurrence gap, days.
const BURST_GAP_MEAN_DAYS: f64 = 2.0;
/// Cap on within-burst gaps, days (safely under the 20-day threshold).
const BURST_GAP_CAP_DAYS: f64 = 15.0;

/// Samples a truncated exponential gap in days.
fn burst_gap(rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.gen_range(1e-6..1.0);
    (-BURST_GAP_MEAN_DAYS * u.ln()).clamp(0.05, BURST_GAP_CAP_DAYS)
}

/// Length of a family activity window, days.
const WINDOW_LEN_DAYS: f64 = 14.0;

/// Draws the activity windows of one fault family: periods during which
/// *any* of its variants may burst. Sibling variants bursting inside the
/// same window is what makes real incident streams temporally ambiguous —
/// recency alone cannot tell which family member struck.
fn family_windows(rng: &mut SmallRng, family_total: u32) -> Vec<f64> {
    let n = (2 + family_total as usize / 10).min(6);
    let mut starts: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0.0..YEAR_DAYS - WINDOW_LEN_DAYS - 5.0))
        .collect();
    starts.sort_by(|a, b| a.partial_cmp(b).expect("finite day values"));
    // Keep windows > 25 days apart so cross-window recurrences register
    // as "long" gaps (Figure 2's tail).
    for i in 1..starts.len() {
        if starts[i] - starts[i - 1] < 25.0 {
            starts[i] =
                (starts[i - 1] + rng.gen_range(25.0..55.0)).min(YEAR_DAYS - WINDOW_LEN_DAYS);
        }
    }
    starts
}

/// Schedules occurrence times (fractional days) for one category whose
/// family is active in `windows`.
fn schedule_category(rng: &mut SmallRng, count: u32, windows: &[f64]) -> Vec<f64> {
    let count = count as usize;
    if count == 1 {
        // Singletons land inside one of the family's windows.
        let w = windows[rng.gen_range(0..windows.len())];
        return vec![w + rng.gen_range(0.0..WINDOW_LEN_DAYS)];
    }
    // Number of bursts grows slowly with occurrence count; each burst is
    // placed in a (possibly shared) family window.
    let bursts = (1 + count / 7).min(windows.len().max(1));
    let mut chosen: Vec<f64> = Vec::with_capacity(bursts);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    for i in 0..bursts.min(order.len()) {
        let j = rng.gen_range(i..order.len());
        order.swap(i, j);
        chosen.push(windows[order[i]]);
    }
    // Distribute occurrences round-robin over bursts, consecutive gaps
    // inside each burst.
    let mut per_burst: Vec<usize> = vec![count / bursts; bursts];
    for slot in per_burst.iter_mut().take(count % bursts) {
        *slot += 1;
    }
    let mut times = Vec::with_capacity(count);
    for (b, &n) in per_burst.iter().enumerate() {
        let mut t = chosen[b] + rng.gen_range(0.0..WINDOW_LEN_DAYS / 2.0);
        for _ in 0..n {
            times.push(t.min(YEAR_DAYS));
            t += burst_gap(rng);
        }
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite day values"));
    times
}

/// Runs the campaign and produces the dataset.
pub fn generate_dataset(config: &CampaignConfig) -> IncidentDataset {
    let catalog = Catalog::standard();
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Phase 1: schedule all occurrences (jitter included so the final
    // order is exactly the scheduled order). Scheduling is per *family*:
    // each family gets shared activity windows, and every variant's
    // bursts land inside them, so sibling categories collide in time.
    let mut family_totals: std::collections::BTreeMap<crate::catalog::Family, u32> =
        std::collections::BTreeMap::new();
    for spec in catalog.categories() {
        *family_totals.entry(spec.family).or_insert(0) += spec.target_count;
    }
    let windows: std::collections::BTreeMap<crate::catalog::Family, Vec<f64>> = family_totals
        .iter()
        .map(|(&family, &total)| (family, family_windows(&mut rng, total)))
        .collect();
    let mut events: Vec<(usize, SimTime)> = Vec::new(); // (category index, time)
    for (ci, spec) in catalog.categories().iter().enumerate() {
        for day in schedule_category(&mut rng, spec.target_count, &windows[&spec.family]) {
            let at = SimTime::from_secs((day * 86_400.0) as u64)
                + SimDuration::from_secs(rng.gen_range(0..3600));
            events.push((ci, at));
        }
    }
    events.sort_by_key(|&(_, at)| at);

    // Phase 2: materialize incidents chronologically.
    let mut incidents = Vec::with_capacity(events.len());
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for (seq, (ci, at)) in events.into_iter().enumerate() {
        let spec = &catalog.categories()[ci];
        let incident = build_incident(
            &mut rng,
            config,
            spec,
            IncidentId(1_000_000 + seq as u64),
            at,
            seen.insert(ci),
        );
        incidents.push(incident);
    }
    IncidentDataset::new(incidents, catalog)
}

/// Builds one incident of `spec` at `at`.
fn build_incident(
    rng: &mut SmallRng,
    config: &CampaignConfig,
    spec: &CategorySpec,
    id: IncidentId,
    at: SimTime,
    first_of_category: bool,
) -> Incident {
    let forest = config.topology.random_forest(rng);
    let mut snapshot = TelemetrySnapshot::new(at);
    fill_background(
        &mut snapshot,
        rng,
        &config.topology,
        forest,
        at,
        &config.noise,
    );
    let (message, primary) = {
        let mut ctx = PlantCtx {
            rng,
            at,
            forest,
            topology: &config.topology,
            primary: None,
        };
        let message = plant(spec, &mut ctx, &mut snapshot);
        (message, ctx.primary)
    };
    snapshot.logs.finish();

    let scope = if spec.machine_scoped {
        // Machine-scoped alerts point at the machine carrying the
        // evidence, as a real monitor would.
        let fallback = config
            .topology
            .random_machine(rng, forest, MachineRole::FrontDoor);
        Scope::Machine(primary.unwrap_or(fallback))
    } else {
        Scope::Forest(forest)
    };
    Incident {
        alert: Alert {
            incident: id,
            alert_type: spec.alert_type,
            scope,
            severity: spec.severity,
            tenant: TenantId::default(),
            raised_at: at,
            monitor: monitor_for(spec.alert_type).to_string(),
            message,
        },
        category: spec.name.clone(),
        first_of_category,
        snapshot: Arc::new(snapshot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_right_count_and_is_sorted() {
        let mut rng = SmallRng::seed_from_u64(5);
        let windows = family_windows(&mut rng, 27);
        for count in [1u32, 2, 7, 27] {
            let times = schedule_category(&mut rng, count, &windows);
            assert_eq!(times.len(), count as usize);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.iter().all(|&t| (0.0..=YEAR_DAYS + 1.0).contains(&t)));
        }
    }

    #[test]
    fn bursts_scale_with_count() {
        // With 27 occurrences there are multiple bursts, so at least one
        // recurrence gap exceeds 20 days.
        let mut rng = SmallRng::seed_from_u64(9);
        let windows = family_windows(&mut rng, 27);
        assert!(windows.len() >= 2);
        let times = schedule_category(&mut rng, 27, &windows);
        let long_gaps = times.windows(2).filter(|w| w[1] - w[0] > 20.0).count();
        assert!(long_gaps >= 1, "expected at least one cross-burst gap");
        let short_gaps = times.windows(2).filter(|w| w[1] - w[0] <= 20.0).count();
        assert!(short_gaps > long_gaps * 2, "most gaps must stay short");
    }

    #[test]
    fn family_windows_are_spread_and_in_year() {
        let mut rng = SmallRng::seed_from_u64(2);
        let windows = family_windows(&mut rng, 40);
        assert!(windows.len() >= 2);
        for w in windows.windows(2) {
            assert!(w[1] - w[0] >= 20.0, "windows too close: {:?}", w);
        }
        assert!(windows.iter().all(|&w| (0.0..YEAR_DAYS).contains(&w)));
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let config = CampaignConfig {
            seed: 7,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 4,
                herring_logs: 1,
                healthy_traces: 2,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        };
        let a = generate_dataset(&config);
        let b = generate_dataset(&config);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.incidents().iter().zip(b.incidents()) {
            assert_eq!(x.category, y.category);
            assert_eq!(x.alert.raised_at, y.alert.raised_at);
            assert_eq!(x.alert.message, y.alert.message);
        }
    }

    #[test]
    fn incidents_are_chronological_with_unique_ids() {
        let config = CampaignConfig {
            seed: 3,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 2,
                herring_logs: 1,
                healthy_traces: 1,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        };
        let ds = generate_dataset(&config);
        assert_eq!(ds.len(), crate::catalog::TOTAL_INCIDENTS as usize);
        let mut ids = BTreeSet::new();
        for w in ds.incidents().windows(2) {
            assert!(w[0].occurred_at() <= w[1].occurred_at());
        }
        for inc in ds.incidents() {
            assert!(ids.insert(inc.alert.incident));
        }
    }

    #[test]
    fn first_of_category_flags_match_category_count() {
        let config = CampaignConfig {
            seed: 3,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 2,
                herring_logs: 1,
                healthy_traces: 1,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        };
        let ds = generate_dataset(&config);
        let firsts = ds
            .incidents()
            .iter()
            .filter(|i| i.first_of_category)
            .count();
        assert_eq!(firsts, crate::catalog::TOTAL_CATEGORIES);
    }
}
