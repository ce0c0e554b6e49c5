//! Virtual-time report metrics.
//!
//! The engine report's deterministic parts live here: the report schema
//! version, the fault counters, histograms of the ex-ante modeled stage
//! costs (virtual seconds on the alert stream's clock), and the
//! deficit-round-robin model that defines the tenant plane's `pool`
//! report. None of these is a performance measurement; wall-clock
//! throughput and latency come from real runs ([`crate::engine::WallStats`]).

use crate::metrics::MetricsRegistry;
use serde_json::{json, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema version of the engine's JSON report ([`ServeOutcome::report`]).
///
/// The report predates the structured [`crate::metrics`] exporter and
/// keeps evolving with the engine; this explicit version lets the two
/// formats drift independently without silently breaking consumers.
/// History: 1 = the implicit shape before versioning; 2 = adds
/// `schema_version`, `clock`, and the real-mode `wall` section; 3 = drops
/// `online_index_stats` (the index has no candidate structure left to
/// report; `online_index_len` stays); 4 = drops `exec`, the modeled
/// worker-pool schedule (wall-clock numbers are in `wall`).
///
/// [`ServeOutcome::report`]: crate::engine::ServeOutcome::report
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// Robustness counters for one engine run.
///
/// Workers are real OS threads, so these are atomics bumped as the
/// supervision machinery acts: injected faults, panics caught and
/// workers respawned, events re-dispatched or quarantined, and poisoned
/// locks recovered instead of aborted. The *counts* are deterministic
/// for a fixed fault plan (decisions depend only on `(seq, attempt)`),
/// even though the thread that bumps each counter is not.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Worker panics caught by the supervisor (injected or organic).
    pub worker_panics: AtomicU64,
    /// Worker incarnations respawned after a caught panic.
    pub worker_respawns: AtomicU64,
    /// Attempts abandoned past their virtual stage deadline.
    pub injected_stalls: AtomicU64,
    /// Attempts failed by an injected transient stage error.
    pub injected_errors: AtomicU64,
    /// Events put back on the retry queue after a lost attempt.
    pub redispatches: AtomicU64,
    /// Events quarantined as poison pills (dead-letter records).
    pub quarantined: AtomicU64,
    /// Events whose collection stage failed (degraded `Failed` outcome).
    pub collection_failures: AtomicU64,
    /// Poisoned locks recovered via `PoisonError::into_inner` instead of
    /// aborting the engine.
    pub poison_recoveries: AtomicU64,
    /// Dispatch-channel sends that found every worker gone; the
    /// dispatcher stops feeding instead of panicking.
    pub dispatch_failures: AtomicU64,
    /// Durable-sink write/fsync failures absorbed by detaching the sink
    /// (the in-memory journal stays consistent).
    pub sink_failures: AtomicU64,
    /// Events fast-failed by an open per-tenant circuit breaker instead
    /// of being dispatched into a known-faulting pipeline.
    pub breaker_fast_fails: AtomicU64,
    /// Durable-sink fsync attempts that returned an error (each is
    /// retried once before the sink degrades).
    pub fsync_failures: AtomicU64,
    /// Transient sink write/fsync/rewrite errors retried in place.
    pub sink_retries: AtomicU64,
    /// Sink operations refused with `ENOSPC` (answered by
    /// checkpoint-fold-and-retry, then durability pause).
    pub enospc_events: AtomicU64,
    /// Spans in which the journal ran with durability paused — sink
    /// attached but appends withheld until a fold freed space.
    pub durability_paused_spans: AtomicU64,
    /// Corrupt WAL records quarantined as dead letters at recovery
    /// (CRC mismatch or unparseable frame, resynced past, never fatal).
    pub wal_quarantined: AtomicU64,
    /// Valid-but-unreachable WAL records dropped at recovery because a
    /// quarantined record broke their tenant's commit chain.
    pub wal_dropped: AtomicU64,
}

impl FaultCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        FaultCounters::default()
    }

    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// JSON summary for the engine report.
    pub fn to_json(&self) -> Value {
        json!({
            "worker_panics": Self::get(&self.worker_panics),
            "worker_respawns": Self::get(&self.worker_respawns),
            "injected_stalls": Self::get(&self.injected_stalls),
            "injected_errors": Self::get(&self.injected_errors),
            "redispatches": Self::get(&self.redispatches),
            "quarantined": Self::get(&self.quarantined),
            "collection_failures": Self::get(&self.collection_failures),
            "poison_recoveries": Self::get(&self.poison_recoveries),
            "dispatch_failures": Self::get(&self.dispatch_failures),
            "sink_failures": Self::get(&self.sink_failures),
            "breaker_fast_fails": Self::get(&self.breaker_fast_fails),
            "fsync_failures": Self::get(&self.fsync_failures),
            "sink_retries": Self::get(&self.sink_retries),
            "enospc_events": Self::get(&self.enospc_events),
            "durability_paused_spans": Self::get(&self.durability_paused_spans),
            "wal_quarantined": Self::get(&self.wal_quarantined),
            "wal_dropped": Self::get(&self.wal_dropped),
        })
    }

    /// Every counter as a `(kind, value)` row, in report order.
    pub fn rows(&self) -> [(&'static str, u64); 17] {
        [
            ("worker_panics", Self::get(&self.worker_panics)),
            ("worker_respawns", Self::get(&self.worker_respawns)),
            ("injected_stalls", Self::get(&self.injected_stalls)),
            ("injected_errors", Self::get(&self.injected_errors)),
            ("redispatches", Self::get(&self.redispatches)),
            ("quarantined", Self::get(&self.quarantined)),
            ("collection_failures", Self::get(&self.collection_failures)),
            ("poison_recoveries", Self::get(&self.poison_recoveries)),
            ("dispatch_failures", Self::get(&self.dispatch_failures)),
            ("sink_failures", Self::get(&self.sink_failures)),
            ("breaker_fast_fails", Self::get(&self.breaker_fast_fails)),
            ("fsync_failures", Self::get(&self.fsync_failures)),
            ("sink_retries", Self::get(&self.sink_retries)),
            ("enospc_events", Self::get(&self.enospc_events)),
            (
                "durability_paused_spans",
                Self::get(&self.durability_paused_spans),
            ),
            ("wal_quarantined", Self::get(&self.wal_quarantined)),
            ("wal_dropped", Self::get(&self.wal_dropped)),
        ]
    }

    /// Bridges these ad-hoc counters into the structured metrics
    /// registry as `rca_faults_total{tenant, kind}` — the absorption
    /// seam between the legacy report and the Prometheus/JSON exporters.
    /// Zero-valued counters are skipped (idiomatic for counters: absent
    /// means zero).
    pub fn export_to(&self, registry: &MetricsRegistry, tenant: &str) {
        registry.describe("rca_faults_total", "Fault-plane counters by kind.");
        for (kind, value) in self.rows() {
            if value > 0 {
                registry.inc_counter_by(
                    "rca_faults_total",
                    &[("tenant", tenant), ("kind", kind)],
                    value,
                );
            }
        }
    }
}

/// A histogram of virtual durations in seconds.
#[derive(Debug, Clone, Default)]
pub struct VirtualHistogram {
    samples: Vec<u64>,
}

impl VirtualHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        VirtualHistogram::default()
    }

    /// Records one duration sample (virtual seconds).
    pub fn record(&mut self, secs: u64) {
        self.samples.push(secs);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples, in record order — for re-binning into the
    /// fixed-bucket registry histograms.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile (`q` in `0.0..=1.0`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// JSON summary: count, mean, p50, p99, max.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.len(),
            "mean_secs": self.mean(),
            "p50_secs": self.percentile(0.50),
            "p99_secs": self.percentile(0.99),
            "max_secs": self.max(),
        })
    }
}

/// Schedule statistics of one simulated pool, or of one tenant's jobs
/// within it.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Queue-wait per job (start − arrival).
    pub waits: VirtualHistogram,
    /// Sojourn time per job (finish − arrival).
    pub latencies: VirtualHistogram,
    /// Virtual makespan: last finish − first arrival (0 when no jobs).
    pub makespan_secs: u64,
    /// Peak number of jobs that had arrived but not yet started.
    pub peak_queue_depth: usize,
    /// Number of jobs simulated.
    pub completed: usize,
}

impl ExecStats {
    /// Completed jobs per virtual hour; 0.0 for an empty or zero-length run.
    pub fn throughput_per_hour(&self) -> f64 {
        if self.makespan_secs == 0 {
            return 0.0;
        }
        self.completed as f64 * 3_600.0 / self.makespan_secs as f64
    }

    /// JSON summary of the run.
    pub fn to_json(&self) -> Value {
        json!({
            "completed": self.completed,
            "makespan_secs": self.makespan_secs,
            "throughput_per_hour": self.throughput_per_hour(),
            "peak_queue_depth": self.peak_queue_depth,
            "wait": self.waits.to_json(),
            "latency": self.latencies.to_json(),
        })
    }
}

/// One job for the deficit-round-robin pool simulation: a tenant-tagged
/// admitted event with its virtual arrival and service demand.
#[derive(Debug, Clone, Copy)]
pub struct DrrJob {
    /// Index of the owning tenant in the `weights`/`caps` slices passed
    /// to [`simulate_drr`].
    pub tenant_slot: usize,
    /// Arrival instant (virtual seconds since stream epoch).
    pub arrival_secs: u64,
    /// Service demand (virtual seconds).
    pub service_secs: u64,
}

/// Result of the deficit-round-robin pool simulation: the merged view
/// plus one [`ExecStats`] per tenant slot.
#[derive(Debug, Clone)]
pub struct DrrStats {
    /// All jobs together, as one pool.
    pub merged: ExecStats,
    /// Per-tenant-slot stats (aligned with the `weights` slice).
    pub per_tenant: Vec<ExecStats>,
}

/// Builds [`ExecStats`] from `(arrival, start, finish)` triples in
/// dispatch order.
fn stats_from_schedule(schedule: &[(u64, u64, u64)]) -> ExecStats {
    let mut waits = VirtualHistogram::new();
    let mut latencies = VirtualHistogram::new();
    let mut last_finish = 0u64;
    let mut first_arrival = u64::MAX;
    let mut deltas: Vec<(u64, i32, i32)> = Vec::with_capacity(schedule.len() * 2);
    for &(arrival, start, finish) in schedule {
        waits.record(start - arrival);
        latencies.record(finish - arrival);
        last_finish = last_finish.max(finish);
        first_arrival = first_arrival.min(arrival);
        deltas.push((arrival, 1, 1));
        deltas.push((start, 0, -1));
    }
    deltas.sort_unstable();
    let mut depth = 0i32;
    let mut peak = 0i32;
    for (_, _, d) in deltas {
        depth += d;
        peak = peak.max(depth);
    }
    let makespan = if schedule.is_empty() {
        0
    } else {
        last_finish.saturating_sub(first_arrival)
    };
    ExecStats {
        waits,
        latencies,
        makespan_secs: makespan,
        peak_queue_depth: peak.max(0) as usize,
        completed: schedule.len(),
    }
}

/// Simulates `workers` FCFS servers shared by multiple tenants under
/// **deficit round robin**: the scheduler cycles over tenant queues; each
/// visit to a tenant with waiting, cap-free work credits its deficit
/// counter with `quantum_secs × weight`, and the tenant dispatches queued
/// jobs (FIFO) while its deficit covers their service demand. A tenant
/// whose arrival queue drains loses its residual deficit (the classic
/// DRR reset, so idle tenants cannot hoard credit), while a tenant
/// blocked only by its in-flight bulkhead cap (`caps[slot]`) keeps its
/// balance. Weighted fairness follows: over any backlogged interval,
/// tenant service rates converge to `weight / Σ weights` of the pool.
///
/// `jobs` must be sorted by arrival (ties keep slice order); every
/// `tenant_slot` must index into `weights`/`caps`. Deterministic: the
/// round-robin pointer advances one tenant per credit round, and every
/// tie is broken by slice order.
pub fn simulate_drr(
    jobs: &[DrrJob],
    workers: usize,
    weights: &[u32],
    quantum_secs: u64,
    caps: &[Option<usize>],
) -> DrrStats {
    let n = weights.len();
    assert_eq!(caps.len(), n, "one cap slot per weight slot");
    assert!(
        jobs.iter().all(|j| j.tenant_slot < n),
        "job tenant_slot out of range"
    );
    let workers = workers.max(1);
    let quantum = quantum_secs.max(1);
    let mut queues: Vec<std::collections::VecDeque<usize>> =
        (0..n).map(|_| std::collections::VecDeque::new()).collect();
    for (j, job) in jobs.iter().enumerate() {
        queues[job.tenant_slot].push_back(j);
    }
    let mut deficit = vec![0u64; n];
    let mut inflight = vec![0usize; n];
    let mut schedule = vec![(0u64, 0u64, 0u64); jobs.len()];
    // Running jobs: min-heap of (finish, dispatch order) with the tenant
    // to release on completion.
    let mut running: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut free_workers = workers;
    // The DRR visit pointer and whether the current visit has already
    // been credited. Both persist across clock advances: a visit
    // interrupted by worker exhaustion resumes on the same tenant, so a
    // tenant's turn is consumed by *service granted*, not by time.
    let mut rr = 0usize;
    let mut credited = false;
    let mut dispatched = 0usize;
    let mut t = jobs.first().map(|j| j.arrival_secs).unwrap_or(0);
    while dispatched < jobs.len() {
        // Dispatch everything schedulable at instant `t`.
        loop {
            let eligible =
                |slot: usize, queues: &[std::collections::VecDeque<usize>], inflight: &[usize]| {
                    queues[slot]
                        .front()
                        .is_some_and(|&j| jobs[j].arrival_secs <= t)
                        && match caps[slot] {
                            Some(cap) => inflight[slot] < cap.max(1),
                            None => true,
                        }
                };
            if free_workers == 0 || !(0..n).any(|s| eligible(s, &queues, &inflight)) {
                break;
            }
            // One visit cycle over the tenants. A full cycle without a
            // dispatch ends the inner loop; the outer loop then either
            // re-credits (some eligible head still lacks deficit) or
            // exits (nothing eligible / no worker).
            let mut scanned = 0usize;
            while scanned < n && free_workers > 0 {
                if eligible(rr, &queues, &inflight) {
                    if !credited {
                        deficit[rr] =
                            deficit[rr].saturating_add(quantum * u64::from(weights[rr].max(1)));
                        credited = true;
                    }
                    let j = *queues[rr].front().expect("eligible queue has a head");
                    if deficit[rr] >= jobs[j].service_secs {
                        queues[rr].pop_front();
                        deficit[rr] -= jobs[j].service_secs;
                        let finish = t + jobs[j].service_secs;
                        schedule[j] = (jobs[j].arrival_secs, t, finish);
                        running.push(Reverse((finish, dispatched, rr)));
                        dispatched += 1;
                        free_workers -= 1;
                        inflight[rr] += 1;
                        scanned = 0;
                        continue;
                    }
                    // Head exceeds the balance: the visit ends, the
                    // balance carries to the tenant's next turn.
                    rr = (rr + 1) % n;
                    credited = false;
                    scanned += 1;
                } else {
                    // A drained arrival queue forfeits residual credit
                    // (the classic DRR reset); a backlog blocked only by
                    // its bulkhead cap keeps its balance.
                    if queues[rr].front().is_none_or(|&j| jobs[j].arrival_secs > t) {
                        deficit[rr] = 0;
                    }
                    rr = (rr + 1) % n;
                    credited = false;
                    scanned += 1;
                }
            }
        }
        if dispatched == jobs.len() {
            break;
        }
        // Advance the clock to the next event: a completion (freeing a
        // worker and a cap slot) or the next pending arrival.
        let next_arrival = queues
            .iter()
            .filter_map(|q| q.front().map(|&j| jobs[j].arrival_secs))
            .filter(|&a| a > t)
            .min();
        let next_finish = running.peek().map(|Reverse((f, _, _))| *f);
        t = match (next_finish.filter(|&f| f > t), next_arrival) {
            (Some(f), Some(a)) => f.min(a),
            (Some(f), None) => f,
            (None, Some(a)) => a,
            (None, None) => break,
        };
        while let Some(&Reverse((finish, _, slot))) = running.peek() {
            if finish > t {
                break;
            }
            running.pop();
            free_workers += 1;
            inflight[slot] -= 1;
        }
    }
    // Per-tenant and merged stats, each in dispatch order of arrival.
    // Bucketed in one pass over the schedule: a thousand-tenant plane
    // would otherwise rescan the full job list once per tenant.
    let mut tenant_rows: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); n];
    for (j, job) in jobs.iter().enumerate() {
        tenant_rows[job.tenant_slot].push(schedule[j]);
    }
    let per_tenant = tenant_rows
        .iter()
        .map(|rows| stats_from_schedule(rows))
        .collect();
    DrrStats {
        merged: stats_from_schedule(&schedule[..]),
        per_tenant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = VirtualHistogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 55.0).abs() < 1e-9);
        assert_eq!(VirtualHistogram::new().percentile(0.5), 0);
    }

    /// FCFS reference for [`simulate_drr`] with one tenant: `workers`
    /// servers over `jobs` sorted by arrival, the earliest-free server
    /// taking the next job.
    fn simulate_pool(jobs: &[DrrJob], workers: usize) -> ExecStats {
        let mut free: BinaryHeap<Reverse<u64>> = (0..workers.max(1)).map(|_| Reverse(0)).collect();
        let schedule: Vec<(u64, u64, u64)> = jobs
            .iter()
            .map(|job| {
                let Reverse(free_at) = free.pop().expect("worker heap never empty");
                let start = free_at.max(job.arrival_secs);
                let finish = start + job.service_secs;
                free.push(Reverse(finish));
                (job.arrival_secs, start, finish)
            })
            .collect();
        stats_from_schedule(&schedule)
    }

    #[test]
    fn single_worker_serializes_jobs() {
        let jobs: Vec<DrrJob> = (0..3)
            .map(|i| DrrJob {
                tenant_slot: 0,
                arrival_secs: i * 10,
                service_secs: 100,
            })
            .collect();
        let stats = simulate_drr(&jobs, 1, &[1], 100, &[None]).merged;
        assert_eq!(stats.makespan_secs, 300);
        assert_eq!(stats.waits.max(), 180);
        assert_eq!(stats.peak_queue_depth, 2);
    }

    #[test]
    fn empty_job_list_is_well_defined() {
        let stats = simulate_drr(&[], 4, &[1], 60, &[None]);
        assert_eq!(stats.merged.completed, 0);
        assert_eq!(stats.merged.makespan_secs, 0);
        assert_eq!(stats.merged.throughput_per_hour(), 0.0);
        assert_eq!(stats.per_tenant[0].completed, 0);
    }

    #[test]
    fn drr_with_one_tenant_matches_the_fcfs_pool() {
        let jobs: Vec<DrrJob> = (0..40)
            .map(|i| DrrJob {
                tenant_slot: 0,
                arrival_secs: (i / 4) * 30,
                service_secs: 200 + (i % 7) * 40,
            })
            .collect();
        for workers in [1usize, 3, 8] {
            let pool = simulate_pool(&jobs, workers);
            let drr = simulate_drr(&jobs, workers, &[1], 60, &[None]);
            assert_eq!(
                drr.merged.makespan_secs, pool.makespan_secs,
                "{workers} workers"
            );
            assert_eq!(
                drr.merged.latencies.percentile(0.99),
                pool.latencies.percentile(0.99)
            );
            assert_eq!(drr.merged.waits.max(), pool.waits.max());
            assert_eq!(drr.merged.completed, pool.completed);
        }
    }

    #[test]
    fn drr_weights_bias_service_three_to_one() {
        // Two saturated tenants on one worker: the 3-weight tenant gets
        // three dispatches per cycle to the 1-weight tenant's one.
        let mut jobs = Vec::new();
        for slot in [0usize, 1] {
            for _ in 0..8 {
                jobs.push(DrrJob {
                    tenant_slot: slot,
                    arrival_secs: 0,
                    service_secs: 100,
                });
            }
        }
        jobs.sort_by_key(|j| j.arrival_secs);
        let stats = simulate_drr(&jobs, 1, &[3, 1], 100, &[None, None]);
        // First cycle: three tenant-0 jobs run back-to-back, then one
        // tenant-1 job.
        assert_eq!(stats.per_tenant[0].waits.percentile(0.0), 0);
        assert_eq!(stats.per_tenant[1].waits.percentile(0.0), 300);
        assert!(
            stats.per_tenant[0].waits.mean() < stats.per_tenant[1].waits.mean(),
            "the heavier tenant must wait less"
        );
        assert_eq!(stats.merged.completed, 16);
        assert_eq!(
            stats.merged.makespan_secs, 1_600,
            "work conserving on a saturated pool"
        );
    }

    #[test]
    fn drr_in_flight_cap_serializes_a_capped_tenant() {
        let jobs: Vec<DrrJob> = (0..10)
            .map(|_| DrrJob {
                tenant_slot: 0,
                arrival_secs: 0,
                service_secs: 100,
            })
            .collect();
        let uncapped = simulate_drr(&jobs, 4, &[1], 100, &[None]);
        assert_eq!(
            uncapped.per_tenant[0].makespan_secs, 300,
            "ceil(10/4) × 100"
        );
        let capped = simulate_drr(&jobs, 4, &[1], 100, &[Some(1)]);
        assert_eq!(
            capped.per_tenant[0].makespan_secs, 1_000,
            "cap 1 serializes despite 4 workers"
        );
    }

    #[test]
    fn drr_bulkhead_shields_a_quiet_tenant_from_a_flood() {
        // Tenant 0 floods 60 jobs at t=0; tenant 1 trickles 5 spread-out
        // jobs. With the flood capped at 1 in-flight, the quiet tenant's
        // waits stay near zero on a 2-worker pool.
        let mut jobs: Vec<DrrJob> = (0..60)
            .map(|_| DrrJob {
                tenant_slot: 0,
                arrival_secs: 0,
                service_secs: 300,
            })
            .collect();
        for i in 0..5u64 {
            jobs.push(DrrJob {
                tenant_slot: 1,
                arrival_secs: i * 2_000,
                service_secs: 100,
            });
        }
        jobs.sort_by_key(|j| j.arrival_secs);
        let stats = simulate_drr(&jobs, 2, &[1, 1], 300, &[Some(1), None]);
        assert_eq!(stats.per_tenant[1].completed, 5);
        assert!(
            stats.per_tenant[1].waits.max() <= 300,
            "quiet tenant wait {} must stay within one flood job",
            stats.per_tenant[1].waits.max()
        );
        // Determinism: byte-identical JSON across runs.
        let again = simulate_drr(&jobs, 2, &[1, 1], 300, &[Some(1), None]);
        assert_eq!(
            serde_json::to_string(&stats.merged.to_json()).unwrap(),
            serde_json::to_string(&again.merged.to_json()).unwrap()
        );
        assert_eq!(stats.merged.completed, 65);
    }
}
