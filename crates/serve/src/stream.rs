//! Seeded alert streams on virtual time.
//!
//! The batch harness walks the dataset offline; the serving engine
//! consumes a *stream*: each incident's alert arrives at a virtual
//! instant drawn from a seeded arrival process. [`ArrivalModel::Replay`]
//! preserves the campaign's own timeline (the parity mode),
//! [`ArrivalModel::Poisson`] compresses it into memoryless arrivals at a
//! configurable rate, and [`ArrivalModel::Bursty`] adds alert storms —
//! bursts of near-simultaneous arrivals that exercise the engine's
//! admission control. A `reraise_prob` lets monitors flap: a recently
//! streamed incident is re-raised as a duplicate alert, which is what
//! makes the engine's content-hash memoization caches earn their keep.
//!
//! The schedule itself is mode-independent: arrival instants are always
//! computed up front on the virtual timeline, and the engine's
//! [`crate::clock::Clock`] decides what an instant *means* —
//! under the DES backend the dispatcher just advances its cursor, under
//! a real clock [`pace`] can turn the same schedule into actual
//! inter-arrival sleeps. Planning on virtual time either way is what
//! keeps the prediction log byte-identical across modes.
//!
//! Unwrap/lock audit (PR 9, DESIGN.md audit table): this module holds no
//! `unwrap`/`expect`/lock sites. The two panic-adjacent spots are
//! indexing in the private `maybe_reraise` helper (guarded: `window ≥ 1`
//! because the event list is non-empty, and `len - 1 - r` with
//! `r < window ≤ len`) and the float casts in the private `exp_gap`
//! helper (clamped by `gen_range(1e-9..1.0)`
//! and `.max(1)`). Keep it that way.

use crate::clock::Clock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcacopilot_simcloud::Incident;
use rcacopilot_telemetry::time::{SimDuration, SimTime};

/// How virtual arrival instants are assigned to the incident sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Keep each incident's original occurrence time: the campaign
    /// timeline verbatim, so an incident arrives when it happened.
    Replay,
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// given mean, independent of the campaign timeline.
    Poisson {
        /// Mean gap between consecutive arrivals, virtual seconds.
        mean_gap_secs: u64,
    },
    /// Poisson background plus alert storms: with probability
    /// `burst_prob` an arrival opens a burst of `burst_len` events
    /// separated by short `burst_gap_secs` gaps.
    Bursty {
        /// Mean background gap, virtual seconds.
        mean_gap_secs: u64,
        /// Probability that an arrival opens a storm.
        burst_prob: f64,
        /// Events per storm (including the opener).
        burst_len: usize,
        /// Gap between storm events, virtual seconds.
        burst_gap_secs: u64,
    },
}

/// Stream parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Seed of the arrival process (independent of the campaign seed).
    pub seed: u64,
    /// The arrival model.
    pub arrivals: ArrivalModel,
    /// Probability that a monitor flaps: after an incident streams, a
    /// duplicate alert for a recent incident is injected. Ignored under
    /// [`ArrivalModel::Replay`].
    pub reraise_prob: f64,
}

impl StreamConfig {
    /// The parity configuration: the campaign timeline verbatim, no
    /// duplicate alerts.
    pub fn replay() -> Self {
        StreamConfig {
            seed: 0,
            arrivals: ArrivalModel::Replay,
            reraise_prob: 0.0,
        }
    }
}

/// One event of the alert stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Position in the stream (commit order).
    pub seq: usize,
    /// Index into the incident slice the stream was scheduled over.
    pub incident_idx: usize,
    /// Virtual arrival instant of the alert.
    pub at: SimTime,
}

/// Exponential gap with the given mean, truncated away from zero.
fn exp_gap(rng: &mut SmallRng, mean_secs: u64) -> u64 {
    let u: f64 = rng.gen_range(1e-9..1.0);
    ((-(mean_secs as f64) * u.ln()) as u64).max(1)
}

/// Schedules the alert stream over `incidents` (taken in slice order).
///
/// Events come back sorted by arrival time with `seq` equal to their
/// position; everything is deterministic in `config`.
pub fn schedule(incidents: &[Incident], config: &StreamConfig) -> Vec<StreamEvent> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut events: Vec<(usize, SimTime)> = Vec::with_capacity(incidents.len());
    match config.arrivals {
        ArrivalModel::Replay => {
            events.extend(incidents.iter().map(Incident::occurred_at).enumerate());
        }
        ArrivalModel::Poisson { mean_gap_secs } => {
            let mut t = SimTime::EPOCH;
            for i in 0..incidents.len() {
                t += SimDuration::from_secs(exp_gap(&mut rng, mean_gap_secs));
                events.push((i, t));
                maybe_reraise(&mut rng, config, &mut events, &mut t);
            }
        }
        ArrivalModel::Bursty {
            mean_gap_secs,
            burst_prob,
            burst_len,
            burst_gap_secs,
        } => {
            let mut t = SimTime::EPOCH;
            let mut i = 0usize;
            while i < incidents.len() {
                t += SimDuration::from_secs(exp_gap(&mut rng, mean_gap_secs));
                let storm = if rng.gen_bool(burst_prob.clamp(0.0, 1.0)) {
                    burst_len.max(1)
                } else {
                    1
                };
                for b in 0..storm {
                    if i >= incidents.len() {
                        break;
                    }
                    if b > 0 {
                        t += SimDuration::from_secs(burst_gap_secs.max(1));
                    }
                    events.push((i, t));
                    i += 1;
                    maybe_reraise(&mut rng, config, &mut events, &mut t);
                }
            }
        }
    }
    // Replay timelines are already sorted; synthetic ones are built
    // sorted too, but make the invariant explicit (stable by
    // construction order on ties).
    events.sort_by_key(|&(_, at)| at);
    events
        .into_iter()
        .enumerate()
        .map(|(seq, (incident_idx, at))| StreamEvent {
            seq,
            incident_idx,
            at,
        })
        .collect()
}

/// Paces the dispatcher to an event's scheduled arrival: advances the
/// clock's planning cursor to `at` and, under a pacing real clock,
/// sleeps out the scaled remainder of the inter-arrival gap. Free under
/// the DES backend — the dispatch loop calls this unconditionally.
pub fn pace(clock: &dyn Clock, at: SimTime) {
    clock.advance_to(at);
    clock.sleep_until(at);
}

/// With `reraise_prob`, injects a duplicate alert for one of the last
/// eight streamed incidents shortly after `t`.
fn maybe_reraise(
    rng: &mut SmallRng,
    config: &StreamConfig,
    events: &mut Vec<(usize, SimTime)>,
    t: &mut SimTime,
) {
    if config.reraise_prob <= 0.0 || events.is_empty() {
        return;
    }
    if rng.gen_bool(config.reraise_prob.clamp(0.0, 1.0)) {
        let window = events.len().min(8);
        let pick = events[events.len() - 1 - rng.gen_range(0..window)].0;
        *t += SimDuration::from_secs(rng.gen_range(30..600));
        events.push((pick, *t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcacopilot_simcloud::noise::NoiseProfile;
    use rcacopilot_simcloud::{generate_dataset, CampaignConfig, Topology};

    fn incidents() -> Vec<Incident> {
        generate_dataset(&CampaignConfig {
            seed: 3,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 2,
                herring_logs: 1,
                healthy_traces: 1,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        })
        .incidents()
        .iter()
        .take(40)
        .cloned()
        .collect()
    }

    #[test]
    fn replay_preserves_original_times_and_order() {
        let incs = incidents();
        let events = schedule(&incs, &StreamConfig::replay());
        assert_eq!(events.len(), incs.len());
        for e in &events {
            assert_eq!(e.at, incs[e.incident_idx].occurred_at());
            assert_eq!(e.seq, e.incident_idx);
        }
    }

    #[test]
    fn poisson_is_seeded_sorted_and_covers_all_incidents() {
        let incs = incidents();
        let cfg = StreamConfig {
            seed: 9,
            arrivals: ArrivalModel::Poisson { mean_gap_secs: 120 },
            reraise_prob: 0.0,
        };
        let a = schedule(&incs, &cfg);
        let b = schedule(&incs, &cfg);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), incs.len());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let other = schedule(&incs, &StreamConfig { seed: 10, ..cfg });
        assert_ne!(a, other, "different seeds shuffle the timeline");
    }

    #[test]
    fn pace_advances_the_virtual_cursor_for_free() {
        let clock = crate::clock::VirtualClock::new();
        let t0 = std::time::Instant::now();
        pace(&clock, SimTime::from_secs(1 << 30));
        assert!(
            t0.elapsed().as_millis() < 100,
            "virtual pacing never sleeps"
        );
        assert_eq!(clock.now(), SimTime::from_secs(1 << 30));
    }

    #[test]
    fn bursts_produce_tight_clusters_and_reraises_duplicate_incidents() {
        let incs = incidents();
        let cfg = StreamConfig {
            seed: 4,
            arrivals: ArrivalModel::Bursty {
                mean_gap_secs: 3_600,
                burst_prob: 0.5,
                burst_len: 5,
                burst_gap_secs: 10,
            },
            reraise_prob: 0.3,
        };
        let events = schedule(&incs, &cfg);
        assert!(events.len() > incs.len(), "re-raises add duplicate events");
        let mut seen = vec![0usize; incs.len()];
        for e in &events {
            seen[e.incident_idx] += 1;
        }
        assert!(seen.iter().all(|&c| c >= 1), "every incident streams");
        assert!(seen.iter().any(|&c| c > 1), "some incident re-raised");
        let tight = events
            .windows(2)
            .filter(|w| (w[1].at - w[0].at).as_secs() <= 10)
            .count();
        assert!(tight > 5, "storms cluster arrivals, got {tight}");
    }
}
